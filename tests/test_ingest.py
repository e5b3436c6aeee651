"""Input parsing and Dag construction: which fault is reported when a file
or an edge list holds several, the array Dag against a per-edge reference
loop, isolated nodes, and the report writer against ``json.dump``."""

import csv
import io
import json
import math
import os
import re
import struct
import tempfile
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from focusfdr.checks import random_dag
import focusfdr.dag as focusfdr_dag
import focusfdr.io as focusfdr_io
from focusfdr.cli import EXIT_INPUT, main
from focusfdr.dag import (CycleDetectedError, DagError, DuplicateEdgeError,
                          NodeIdOutOfRangeError, SelfLoopError, build_dag)
from focusfdr.io import (AnalysisRequest, MissingPvalueError, ParseError,
                         UnknownNodeInPvaluesError, analyze,
                         read_annotation_csv, read_dag, read_edge_csv,
                         read_item_pvalue_csv, read_pvalue_csv,
                         write_report_json)

from helpers import children, export_edge_csv, parents


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# -------------------------------------------- the first fault among several

@pytest.mark.parametrize("m,edges,error,message", [
    (3, [(0, 1), (2, 2), (0, 5), (0, 1)], SelfLoopError,
     "self-loop at node 2"),
    (3, [(0, 1), (0, 1), (1, 1), (3, 0)], DuplicateEdgeError,
     "duplicate edge (0, 1)"),
    (3, [(0, 1), (5, 5), (1, 1)], NodeIdOutOfRangeError,
     "edge (5, 5) outside [0, 3)"),
    (3, [(1, 2), (-1, 0), (1, 2)], NodeIdOutOfRangeError,
     "edge (-1, 0) outside [0, 3)"),
    # (1, 4) would share (2, 1)'s sort key 1 * 3 + 4 if it were in range
    (3, [(2, 1), (1, 4), (2, 1)], NodeIdOutOfRangeError,
     "edge (1, 4) outside [0, 3)"),
    (3, [(2, 1), (0, 2), (0, 1), (2, 1), (0, 0)], DuplicateEdgeError,
     "duplicate edge (2, 1)"),
    (2, [(1, 1), (0, 1), (0, 1)], SelfLoopError, "self-loop at node 1"),
    (0, [(0, 0)], NodeIdOutOfRangeError, "edge (0, 0) outside [0, 0)"),
])
@pytest.mark.parametrize("form", ["list", "array", "generator"])
def test_build_dag_reports_first_faulty_edge(m, edges, error, message, form):
    given = {"list": lambda: list(edges),
             "array": lambda: np.array(edges),
             "generator": lambda: iter(edges)}[form]()
    with pytest.raises(error) as info:
        build_dag(m, given)
    assert str(info.value) == message


EDGE_FILE_FAULTS = [
    ("a,b\nb,b\na,b,c\n", ":3: self-loop at node 'b'"),
    ("a,b\nc,d,e\na,b\n", ":3: expected 2 columns"),
    ("a,b\n\nc,d\na,b\nc,c\n", ":5: duplicate edge 'a' -> 'b'"),
    ("a,b\nb,a\na,b\n,x\n", ":4: duplicate edge 'a' -> 'b'"),
    ("x,y\n,y\nx,x\n", ":3: empty node name"),
    ("a,b\nc,c\na,b\n", ":3: self-loop at node 'c'"),
    (" a , b \nb,c\na,b\n", ":4: duplicate edge 'a' -> 'b'"),
    ("a,b\nb,c\nc\nb,c\n", ":4: expected 2 columns"),
    ("a,b\nb,c\nc,d\nb,c\nd,d\n,\n", ":5: duplicate edge 'b' -> 'c'"),
    # a cycle on the rows before a row fault: the row fault is reported,
    # unless a self-loop or duplicate precedes it
    ("a,b\nb,c\nc,a\nd,e,f\n", ":5: expected 2 columns"),
    ("a,b\nb,a\nc,d\n,d\n", ":5: empty node name"),
    ("a,b\nb,a\nb,a\n,x\n", ":4: duplicate edge 'b' -> 'a'"),
]


@pytest.mark.parametrize("rows,message", EDGE_FILE_FAULTS)
def test_read_edge_csv_reports_first_faulty_line(tmp_path, rows, message):
    path = write(tmp_path / "e.csv", "parent,child\n" + rows)
    with pytest.raises(ParseError) as info:
        read_edge_csv(path)
    assert str(info.value) == path + message


PVALUE_FILE_FAULTS = [
    ("a,0.1\nzz,0.2\nb,nan\n", UnknownNodeInPvaluesError,
     ":3: node 'zz' not present in the graph"),
    ("a,0.1\na,xx\n", ParseError, ":3: duplicate p-value for 'a'"),
    ("zz,xx\n", UnknownNodeInPvaluesError,
     ":2: node 'zz' not present in the graph"),
    ("a,1.5\nzz,0.1\n", ParseError, ":2: p-value '1.5' not in [0, 1]"),
    ("a,abc\nb,2\n", ParseError, ":2: bad p-value 'abc'"),
    ("a,0.1\nb,0.2,3\nzz,0.1\n", ParseError, ":3: expected 2 columns"),
    ("a,0.1\nzz,0.2\nb,0.2,3\n", UnknownNodeInPvaluesError,
     ":3: node 'zz' not present in the graph"),
    ("a,0.1\nb,-0\nc, inf\n", ParseError, ":4: p-value 'inf' not in [0, 1]"),
    ("b,1e-3\n\na,NaN\n", ParseError, ":4: p-value 'NaN' not in [0, 1]"),
    ("a,0.1\nb,\nb,0.3\n", ParseError, ":3: bad p-value ''"),
    ("a,0.000_1\nb,1_0\n", ParseError, ":3: p-value '1_0' not in [0, 1]"),
    ("a,0.1\nb,0.2\na,0.3\nzz,1\n", ParseError,
     ":4: duplicate p-value for 'a'"),
    ("c,0.1\n", MissingPvalueError, ": missing p-value for node(s) a, b"),
    ("", MissingPvalueError, ": missing p-value for node(s) a, b, c"),
]


@pytest.mark.parametrize("rows,error,message", PVALUE_FILE_FAULTS)
def test_read_pvalue_csv_reports_first_faulty_line(tmp_path, rows, error,
                                                   message):
    ids = {"a": 0, "b": 1, "c": 2}
    path = write(tmp_path / "p.csv", "node,p\n" + rows)
    with pytest.raises(error) as info:
        read_pvalue_csv(path, ids)
    assert str(info.value) == path + message


def test_read_pvalue_csv_accepts_python_float_grammar(tmp_path):
    path = write(tmp_path / "p.csv",
                 "node,p\nc, 1E-3 \na,0.000_1\n\nb,-0\n")
    p = read_pvalue_csv(path, {"a": 0, "b": 1, "c": 2})
    assert p.tolist() == [0.0001, 0.0, 0.001]
    assert math.copysign(1.0, p[1]) == -1.0


# id tables that are not the integers 0 .. n - 1, one each: out of range,
# a gap, a repeat, a negative id, and ids that only compare equal to one
BAD_ID_TABLES = {"out of range": {"a": 5}, "gap": {"a": 0, "b": 2},
                 "repeat": {"a": 0, "b": 0}, "negative": {"a": -1},
                 "str": {"a": "0"}, "float": {"a": 0.0},
                 "bool": {"a": False}, "0-d": {"a": np.array(0)},
                 "None": {"a": None}, "huge": {"a": 2 ** 70}}


@pytest.mark.parametrize("table", BAD_ID_TABLES.values(),
                         ids=BAD_ID_TABLES.keys())
def test_read_pvalue_csv_refuses_an_id_table_not_dense(tmp_path, table):
    path = write(tmp_path / "p.csv", "node,p\na,0.1\n")
    with pytest.raises(ValueError) as info:
        read_pvalue_csv(path, table)
    assert str(info.value) == ("name_to_id must map its names onto "
                               f"0 .. {len(table) - 1}")


@pytest.mark.parametrize("table", BAD_ID_TABLES.values(),
                         ids=BAD_ID_TABLES.keys())
@pytest.mark.parametrize("which", ["name_to_id", "item_to_id"])
def test_read_annotation_csv_refuses_an_id_table_not_dense(tmp_path, table,
                                                           which):
    path = write(tmp_path / "a.csv", "node,item\na,x\n")
    tables = {"name_to_id": {"a": 0}, "item_to_id": {"x": 0}, which: table}
    with pytest.raises(ValueError, match=f"^{which} must map"):
        read_annotation_csv(path, tables["name_to_id"],
                            tables["item_to_id"])


def test_any_dense_id_table_is_read(tmp_path):
    # ids in any order, numpy integers included
    path = write(tmp_path / "p.csv", "node,p\na,0.1\nb,0.2\nc,0.3\n")
    table = {"a": 2, "b": np.int64(0), "c": 1}
    assert read_pvalue_csv(path, table).tolist() == [0.2, 0.3, 0.1]
    path = write(tmp_path / "a.csv", "node,item\na,x\nb,y\nc,x\n")
    assert read_annotation_csv(path, table, {"y": 1, "x": 0}) == [
        {1}, {0}, {0}]


@pytest.mark.parametrize("rows,message", [
    ("g1,0.1\ng2,x\ng1,0.3\n", ":3: bad p-value 'x'"),
    ("g1,0.1\ng1,x\n", ":3: duplicate item 'g1'"),
    ("g1,2\ng2,x\n", ":2: p-value '2' not in [0, 1]"),
    ("g1,0.1\ng2\ng1,x\n", ":3: expected 2 columns"),
    ("", ": no items found"),
])
def test_read_item_pvalue_csv_reports_first_faulty_line(tmp_path, rows,
                                                        message):
    path = write(tmp_path / "i.csv", "item,p\n" + rows)
    with pytest.raises(ParseError) as info:
        read_item_pvalue_csv(path)
    assert str(info.value) == path + message


# a quoted name spanning lines 2 and 3 puts the next record on line 4
QUOTED = '"a\nb"'
READERS = {
    "edges": ("parent,child", read_edge_csv),
    "pvalues": ("node,p", lambda path: read_pvalue_csv(path, {"a\nb": 0})),
    "items": ("item,p", read_item_pvalue_csv),
    "annotations": ("node,item", lambda path: read_annotation_csv(
        path, {"a\nb": 0}, {"a\nb": 0, "g": 1})),
}


LINE_CASES = [
    ("edges", f"{QUOTED},c\nx,x\n", ":4: self-loop at node 'x'"),
    ("edges", f"{QUOTED},c\n{QUOTED},c\n", ":4: duplicate edge"),
    ("edges", f"{QUOTED},c\n,c\n", ":4: empty node name"),
    ("edges", f"{QUOTED},c\nx,y,z\n", ":4: expected 2 columns"),
    ("pvalues", f"{QUOTED},0.1\nzz,0.2\n", ":4: node 'zz' not present"),
    ("items", f"{QUOTED},0.1\ng,x\n", ":4: bad p-value 'x'"),
    ("items", f"{QUOTED},0.1\n\ng\n", ":5: expected 2 columns"),
    ("annotations", f"{QUOTED},g\nzz,g\n", ":4: unknown node 'zz'"),
    ("annotations", f"{QUOTED},g\n{QUOTED},zz\n", ":4: unknown item 'zz'"),
]
LINE_IDS = ["edges-self-loop", "edges-duplicate", "edges-empty-name",
            "edges-columns", "pvalues-unknown", "items-bad-p",
            "items-columns", "annotations-node", "annotations-item"]


@pytest.mark.parametrize("reader,rows,message", LINE_CASES, ids=LINE_IDS)
def test_readers_name_the_line_a_record_starts_on(tmp_path, reader, rows,
                                                   message):
    # records used to be counted as lines, one short after a quoted break
    header, read = READERS[reader]
    path = write(tmp_path / "f.csv", f"{header}\n{rows}")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(path + message)


def test_a_record_spanning_lines_is_numbered_by_its_first(tmp_path):
    path = write(tmp_path / "e.csv", 'parent,child\n"x\n\ny","x\n\ny"\n')
    with pytest.raises(ParseError, match=r"e\.csv:2: self-loop"):
        read_edge_csv(path)


@pytest.mark.parametrize("rows,message", EDGE_FILE_FAULTS)
def test_cli_reports_first_faulty_edge_line(tmp_path, capsys, rows, message):
    dag = write(tmp_path / "e.csv", "parent,child\n" + rows)
    assert main(["graph-info", "--dag", dag]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {dag}{message}\n"


@pytest.mark.parametrize("rows,error,message", PVALUE_FILE_FAULTS)
def test_cli_reports_first_faulty_pvalue_line(tmp_path, capsys, rows, error,
                                              message):
    dag = write(tmp_path / "e.csv", "parent,child\na,b\nb,c\n")
    pv = write(tmp_path / "p.csv", "node,p\n" + rows)
    assert main(["analyze", "--dag", dag, "--pvalues", pv]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {pv}{message}\n"


def with_rows(rows, inserted):
    """``rows`` as file lines after a header, with each (line, row) of
    ``inserted`` put on that line."""
    rows = list(rows)
    for line, row in sorted(inserted):
        rows.insert(line - 2, row)
    return "".join(row + "\n" for row in rows)


# (line, repeated edge) pairs far apart, and the line of the first repeat:
# a copy put before its original makes the original the repeat
FAR_EDGE_REPEATS = [
    ([(1500, 700), (3500, 10)], (1500, 700)),
    ([(1500, 10), (3500, 700)], (1500, 10)),
    ([(900, 899), (3999, 0)], (902, 899)),
    ([(2, 3000), (4002, 3000)], (3003, 3000)),
]


@pytest.mark.parametrize("repeated, fault", FAR_EDGE_REPEATS)
def test_the_first_of_two_far_repeated_edges_is_named(tmp_path, repeated,
                                                      fault):
    # thousands of distinct keys around the equal ones: the edge check
    # must still name the first line that repeats an earlier edge
    edges = [f"u{i},v{i}" for i in range(4000)]
    rows = with_rows(edges, [(line, edges[k]) for line, k in repeated])
    path = write(tmp_path / "e.csv", "parent,child\n" + rows)
    with pytest.raises(ParseError) as info:
        read_edge_csv(path)
    line, k = fault
    assert str(info.value) == (f"{path}:{line}: duplicate edge 'u{k}' -> "
                               f"'v{k}'")


# (line, repeated name) pairs: within the first block of 1,024 lines,
# across blocks, and within the second block before a repeat across them
FAR_PVALUE_REPEATS = [
    ([(900, 40), (1000, 10)], (900, 40)),
    ([(1500, 5), (1900, 1600)], (1500, 5)),
    ([(1300, 1100), (1500, 5)], (1300, 1100)),
    ([(1020, 1000), (1030, 1001)], (1020, 1000)),
]


@pytest.mark.parametrize("repeated, fault", FAR_PVALUE_REPEATS)
def test_the_first_repeated_name_is_named_within_and_across_blocks(
        tmp_path, repeated, fault):
    names = [f"n{i}" for i in range(3000)]
    rows = with_rows((f"{n},0.5" for n in names),
                     [(line, f"{names[k]},0.25") for line, k in repeated])
    path = write(tmp_path / "p.csv", "node,p\n" + rows)
    with pytest.raises(ParseError) as info:
        read_pvalue_csv(path, {n: i for i, n in enumerate(names)})
    line, k = fault
    assert str(info.value) == (f"{path}:{line}: duplicate p-value for "
                               f"'{names[k]}'")


# ------------------------------ both ways a file is read: split, csv.reader

def quote_header(text):
    """``text`` with its header's first name quoted: the header reads the
    same, but a file that holds a quote is parsed by ``csv.reader``, where
    a file without one is split at its commas and line breaks."""
    name, rest = text.split(",", 1)
    return f'"{name}",{rest}'


@pytest.mark.parametrize("rows,message", EDGE_FILE_FAULTS)
def test_edge_faults_through_csv_reader(tmp_path, capsys, rows, message):
    path = write(tmp_path / "e.csv", quote_header("parent,child\n" + rows))
    with pytest.raises(ParseError) as info:
        read_edge_csv(path)
    assert str(info.value) == path + message
    assert main(["graph-info", "--dag", path]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}{message}\n"


@pytest.mark.parametrize("rows,error,message", PVALUE_FILE_FAULTS)
def test_pvalue_faults_through_csv_reader(tmp_path, capsys, rows, error,
                                          message):
    dag = write(tmp_path / "e.csv", "parent,child\na,b\nb,c\n")
    pv = write(tmp_path / "p.csv", quote_header("node,p\n" + rows))
    with pytest.raises(error) as info:
        read_pvalue_csv(pv, {"a": 0, "b": 1, "c": 2})
    assert str(info.value) == pv + message
    assert main(["analyze", "--dag", dag, "--pvalues", pv]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {pv}{message}\n"


@pytest.mark.parametrize("reader,rows,message", LINE_CASES, ids=LINE_IDS)
def test_line_numbers_through_csv_reader(tmp_path, reader, rows, message):
    header, read = READERS[reader]
    path = write(tmp_path / "f.csv", quote_header(f"{header}\n{rows}"))
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(path + message)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_blocks_keep_record_numbers_and_first_faults(tmp_path, monkeypatch,
                                                     block):
    # faults, blank rows and a quoted cell on either side of block bounds
    monkeypatch.setattr(focusfdr_io, "_BLOCK", block)
    edges = "parent,child\na,b\n\nb,c\n,\n" + QUOTED + ",d\n"
    path = write(tmp_path / "e.csv", edges + "e,f\nb,c\nx\n")
    with pytest.raises(ParseError, match=r"e\.csv:9: duplicate edge"):
        read_edge_csv(path)
    path = write(tmp_path / "e.csv", edges + "e,f\nx\nb,c\n")
    with pytest.raises(ParseError, match=r"e\.csv:9: expected 2 columns"):
        read_edge_csv(path)
    names, ids, got = read_edge_csv(write(tmp_path / "e.csv", edges))
    assert names == ["a", "b", "c", "a\nb", "d"]
    assert got.tolist() == [[0, 1], [1, 2], [3, 4]]
    pv = write(tmp_path / "p.csv", "node,p\nc,0.3\n\na,0.1\nb,0.2\n\n")
    assert read_pvalue_csv(pv, {"a": 0, "b": 1, "c": 2}).tolist() == [
        0.1, 0.2, 0.3]
    pv = write(tmp_path / "p.csv", "node,p\nc,0.3\n\na,0.1\nb,2\nc,0.1\n")
    with pytest.raises(ParseError, match=r"p\.csv:5: p-value '2'"):
        read_pvalue_csv(pv, {"a": 0, "b": 1, "c": 2})
    pv = write(tmp_path / "p.csv", "item,p\ng,0.3\n\nh,0.1\n\ng,0.2\n")
    with pytest.raises(ParseError, match=r"p\.csv:6: duplicate item 'g'"):
        read_item_pvalue_csv(pv)


LONG = "x" * 200_000


@pytest.mark.parametrize("header", ["parent,child", '"parent",child'],
                         ids=["split", "csv-reader"])
@pytest.mark.parametrize("rows,line", [
    (f"a,b\n{LONG},c\n", 3), (f"a,b\nb,{LONG}\nc,c\n", 3),
    (f"a,b\n\nc,{LONG}", 4), (f"{LONG},a\n", 2)],
    ids=["parent", "child", "last-line", "first-row"])
def test_cli_oversized_field_exits_2(tmp_path, capsys, header, rows, line):
    # csv.reader's own error used to escape as a traceback with exit 1
    dag = write(tmp_path / "e.csv", f"{header}\n{rows}")
    assert main(["graph-info", "--dag", dag]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {dag}:{line}: field larger than field limit (131072)\n")


def test_a_cell_at_the_limit_is_read(tmp_path):
    # its line is longer than the limit, which alone is no fault
    name = "y" * csv.field_size_limit()
    for header in ("parent,child", '"parent",child'):
        path = write(tmp_path / "e.csv", f"{header}\n{name},b\r\n")
        assert read_edge_csv(path)[0] == [name, "b"]


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


BLOCK = focusfdr_io._BLOCK
# each reader, with what it returns in a form == compares
PATH_READERS = {
    "parent,child": lambda path: (lambda names, ids, edges: (
        names, ids, edges.tolist()))(*read_edge_csv(path)),
    "node,p": lambda path: read_pvalue_csv(path, {"a": 0, "b": 1}).tolist(),
    "item,p": lambda path: (lambda names, ids, p: (names, ids, p.tolist()))(
        *read_item_pvalue_csv(path)),
    "node,item": lambda path: read_annotation_csv(
        path, {"a": 0, "b": 1}, {"a": 0, "b": 1, "0.5": 2}),
}
# line breaks, the separator and what str.strip strips, but no quote
PIECES = [",", "\n", "\r", "\r\n", " ", "\t", "\x00", "\x0b", "\x0c",
          "\x1c", "\x85", "\xa0", "\u2028", "\u3000", "a", "b", "0.5"]


@given(body=st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
       block=st.sampled_from([1, 2, 3, 1024]))
@settings(max_examples=300, deadline=None)
def test_split_and_csv_reader_give_the_same_result(body, block):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "f.csv")
        for header, read in PATH_READERS.items():
            got = []
            for text, size in [(f"{header}\n{body}", block),
                               (quote_header(f"{header}\n{body}"), 1024)]:
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                focusfdr_io._BLOCK = size
                try:
                    got.append(_outcome(read, path))
                finally:
                    focusfdr_io._BLOCK = BLOCK
            assert got[0] == got[1], header


def _where(path, record):
    """The "path:line" on which record ``record`` starts (the header is
    record 0), one line past where the record before it ends: a re-read
    of the file by ``csv.reader``, as the readers once named a fault."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, record):
            pass
        return f"{path}:{reader.line_num + 1}"


def _numbered(records):
    """``records`` with each record's number (the header is record 0) in
    place of the line it starts on."""
    def numbered(fh):
        at = 0
        for cells, widths, _, error in records(fh):
            at += len(widths)       # before a reader takes the header off
            yield cells, widths, range(at - len(widths), at + 1), error
    return numbered


# rows of cells, some quoted, holding the separator, a quote, line breaks
# or nothing, beside a lone quote and a cell over csv's field limit
QUOTED_CELLS = ["a", "b", "0.5", "", " b\t", "\x00", '"a,b"', '"a""b"',
                '"a\nb"', '"\r"', '"b\r\n"', '"\n\r"', '"\r\n\r\n"', '""',
                '"a', "x" * (csv.field_size_limit() + 1)]
QUOTED_ROWS = st.tuples(st.lists(st.sampled_from(QUOTED_CELLS), max_size=3)
                        .map(",".join),
                        st.sampled_from(["\n", "\r", "\r\n"])).map("".join)


@given(body=st.lists(QUOTED_ROWS, max_size=12).map("".join),
       block=st.sampled_from([1, 2, 3, 1024]))
@settings(max_examples=300, deadline=None)
def test_readers_name_the_line_a_re_read_names(body, block):
    records = focusfdr_io._records
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "f.csv")
        for header, read in PATH_READERS.items():
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(f"{header}\n{body}")
            focusfdr_io._BLOCK = block
            try:
                got = _outcome(read, path)
                focusfdr_io._records = _numbered(records)
                want = _outcome(read, path)
            finally:
                focusfdr_io._BLOCK, focusfdr_io._records = BLOCK, records
            fault = isinstance(want, tuple) and re.fullmatch(
                re.escape(path) + r":(\d+): (.*)", str(want[1]), re.S)
            if fault:
                want = (want[0], f"{_where(path, int(fault[1]))}: {fault[2]}")
            assert got == want, header


# -------------------------------- inputs that cannot be read twice: pipes

needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                                  reason="no /dev/fd")


@pytest.fixture
def pipe():
    """A maker of "/dev/fd/<n>" paths, each the read end of a pipe that
    holds the given text once."""
    ends = []

    def make(text):
        end, into = os.pipe()
        ends.append(end)
        with os.fdopen(into, "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"/dev/fd/{end}"
    yield make
    for end in ends:
        os.close(end)


@needs_dev_fd
def test_a_piped_pvalue_file_names_the_faulty_line(tmp_path, capsys, pipe):
    # the fault was named by a re-read of the drained pipe: line 1
    dag = write(tmp_path / "e.csv", "parent,child\na,b\nb,c\n")
    text = "node,p\na,0.1\nb,0.2\nc,1.5\n"
    path = pipe(text)
    with pytest.raises(ParseError) as info:
        read_pvalue_csv(path, {"a": 0, "b": 1, "c": 2})
    assert str(info.value) == f"{path}:4: p-value '1.5' not in [0, 1]"
    path = pipe(text)
    assert main(["analyze", "--dag", dag, "--pvalues", path]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {path}:4: p-value '1.5' not in [0, 1]\n")


@needs_dev_fd
@pytest.mark.parametrize("rows,line,name", [
    ("a,b\nb,c\nc,c\n", 4, "c"), ('a,b\n"x\ny","x\ny"\n', 3, "x\ny")],
    ids=["split", "quoted"])
def test_a_piped_edge_list_names_the_faulty_line(tmp_path, capsys, pipe,
                                                  rows, line, name):
    pv = write(tmp_path / "p.csv", "node,p\na,0.1\n")
    message = f":{line}: self-loop at node {name!r}"
    path = pipe("parent,child\n" + rows)
    with pytest.raises(ParseError) as info:
        read_edge_csv(path)
    assert str(info.value) == path + message
    path = pipe("parent,child\n" + rows)
    assert main(["analyze", "--dag", path, "--pvalues", pv]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}{message}\n"


@pytest.mark.parametrize("reader,rows,message", LINE_CASES + [
    ("edges", f"a,b\n{LONG},c\n", ":3: field larger"),
    ("pvalues", f"{QUOTED},1.5\n", ":2: p-value '1.5'"),
    ("annotations", f"{QUOTED},g\n\nzz,g\n", ":5: unknown node 'zz'")],
    ids=LINE_IDS + ["edges-oversized", "pvalues-range", "annotations-blank"])
def test_each_reader_opens_a_faulty_file_once(tmp_path, monkeypatch, reader,
                                              rows, message):
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)
    monkeypatch.setattr(focusfdr_io, "open", counted, raising=False)
    header, read = READERS[reader]
    path = write(tmp_path / "f.csv", f"{header}\n{rows}")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(path + message)
    assert opened == [path]


# ------------------------------------------------- the array Dag, per edge

def reference_dag(m, edges):
    """The per-edge loop: validate each edge in input order, then longest
    path depths by relaxing every edge until nothing changes."""
    seen = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if not (0 <= a < m) or not (0 <= b < m):
            raise NodeIdOutOfRangeError(f"edge ({a}, {b}) outside [0, {m})")
        if a == b:
            raise SelfLoopError(f"self-loop at node {a}")
        if (a, b) in seen:
            raise DuplicateEdgeError(f"duplicate edge {(a, b)}")
        seen.add((a, b))
    depth = [1] * m
    for _ in range(m + 1):
        changed = False
        for a, b in seen:
            if depth[b] < depth[a] + 1:
                depth[b] = depth[a] + 1
                changed = True
        if not changed:
            break
    else:
        raise CycleDetectedError("cycle")
    return {
        "depth": depth,
        "topo_order": tuple(sorted(range(m), key=lambda v: (depth[v], v))),
        "edge_order": sorted(seen, key=lambda e: (depth[e[1]], e[1], e[0])),
        "edges": seen,
        "children": tuple(tuple(sorted(b for a, b in seen if a == v))
                          for v in range(m)),
        "parents": tuple(tuple(sorted(a for a, b in seen if b == v))
                         for v in range(m)),
        "roots": tuple(v for v in range(m) if all(b != v for _, b in seen)),
        "leaves": tuple(v for v in range(m) if all(a != v for a, _ in seen)),
    }


def on_a_cycle(edges, node):
    reached, frontier = set(), {node}
    while frontier:
        frontier = {b for a, b in edges if a in frontier} - reached
        reached |= frontier
    return node in reached


@st.composite
def edge_lists(draw):
    m = draw(st.integers(0, 8))
    ids = st.integers(-1, m)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=20))
    if draw(st.booleans()):     # forward edges only: usually acyclic
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    if draw(st.booleans()):     # drop the faulty edges
        pairs = list(dict.fromkeys((a, b) for a, b in pairs
                                   if a != b and 0 <= min(a, b)
                                   and max(a, b) < m))
    return m, pairs


@given(case=edge_lists(), form=st.sampled_from(["list", "generator", "set",
                                                "array"]))
@settings(max_examples=400, deadline=None)
def test_array_dag_matches_per_edge_loop(case, form):
    m, pairs = case
    if form == "set":
        pairs = set(pairs)
    given_edges = {"list": lambda: list(pairs), "set": lambda: pairs,
                   "generator": lambda: (e for e in pairs),
                   "array": lambda: np.array(list(pairs),
                                             dtype=np.intp).reshape(-1, 2),
                   }[form]()
    try:
        want = reference_dag(m, pairs)
    except CycleDetectedError:
        with pytest.raises(CycleDetectedError) as info:
            build_dag(m, given_edges)
        assert on_a_cycle(set(pairs), info.value.node)
        assert str(info.value) == ("edge set contains a directed cycle "
                                   f"through node {info.value.node}")
        return
    except DagError as exc:
        with pytest.raises(type(exc)) as info:
            build_dag(m, given_edges)
        assert str(info.value) == str(exc)
        return
    dag = build_dag(m, given_edges)
    assert dag.depth.tolist() == want["depth"]
    assert list(zip(dag.edge_parent.tolist(), dag.edge_child.tolist())) \
        == want["edge_order"]
    for name in ("topo_order", "roots", "leaves"):
        assert tuple(getattr(dag, name).tolist()) == want[name], name
    assert dag.edges == want["edges"]
    assert children(dag) == want["children"]
    assert parents(dag) == want["parents"]
    assert isinstance(dag.edges, frozenset)
    assert dag.edges is dag.edges           # cached
    for array in (dag.depth, dag.edge_parent, dag.child_indices,
                  dag.parent_start, dag.topo_order, dag.node_ptr, dag.roots,
                  dag.leaves):
        assert array.dtype == np.intp
        assert not array.flags.writeable


# ------------------------------------------------------- the report writer

NAMES = st.text(alphabet=st.sampled_from(['a', 'é', '"', '\\', '\n', ',',
                                          '{', '}', '☃', '\U0001f600', ' ']),
                max_size=6)
# quiet NaNs of either sign with and without payload bits, and a signalling
# NaN: the writer pools floats by bit pattern, and each must read NaN
NANS = [struct.unpack("<d", struct.pack("<Q", bits))[0]
        for bits in (0x7FF8000000000000, 0x7FF8000000000001,
                     0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF,
                     0x7FF0000000000001)]
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 0.1, *NANS]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                    FLOATS, NAMES)
# ids in an int column, bools among them, and ints no double holds
IDS = st.one_of(st.integers(0, 10**6), st.booleans(),
                st.integers(-2**70, 2**70))
ROWS = st.fixed_dictionaries({"node": NAMES, "id": IDS,
                              "depth": st.integers(1, 20), "p": FLOATS,
                              "p_used": FLOATS, "weight": FLOATS,
                              "weighted_p": FLOATS})


@st.composite
def row_lists(draw):
    """Discovery-like rows: p_used may be p, the weights may take 1-3
    values, and one row may lose a key, have its keys reordered or gain a
    key that is not a str."""
    rows = draw(st.lists(ROWS, max_size=6))
    weights = draw(st.lists(FLOATS, min_size=1, max_size=3))
    same_p, few_weights = draw(st.booleans()), draw(st.booleans())
    for row in rows:
        if same_p:
            row["p_used"] = row["p"]
        if few_weights:
            row["weight"] = draw(st.sampled_from(weights))
    if rows:
        row = draw(st.sampled_from(rows))
        change = draw(st.sampled_from(["none", "drop", "reorder", "key"]))
        if change == "drop":
            del row[draw(st.sampled_from(sorted(row)))]
        elif change == "reorder":
            items = draw(st.permutations(list(row.items())))
            row.clear()
            row.update(items)
        elif change == "key":
            row[draw(st.sampled_from([0, 2.5, None, True]))] = 1
    return rows


def _row(k, p, **changed):
    row = {"node": f"GO:{k}", "id": k, "depth": 1 + k % 3, "p": p,
           "p_used": p, "weight": 1.0, "weighted_p": p}
    row.update(changed)
    return row


# each byte-equal to json.dump, over blocks of 2 rows
EDGE_ROWS = [
    [_row(k, k / 7) for k in range(5)],                         # p_used is p
    [_row(k, k / 7, weight=(0.5, 1.0, 1.5)[k % 3],              # 3 weights
          weighted_p=k / 7 * (0.5, 1.0, 1.5)[k % 3]) for k in range(7)],
    [_row(0, 0.0, p_used=-0.0), _row(1, -0.0, weighted_p=0.0),  # signed 0
     _row(2, 0.0, weight=-0.0)],
    [_row(k, nan, p_used=NANS[-1 - k]) for k, nan in enumerate(NANS)],
    [_row(0, 0.1, id=True), _row(1, 0.2, id=False), _row(2, 0.3, id=5)],
    [_row(0, 0.1, id=2**53 + 1), _row(1, 0.2, id=-2**64 - 3),
     _row(2, 0.3, id=10**30)],
    [_row(0, 0.1), dict(reversed(_row(1, 0.2).items())), _row(2, 0.3)],
    [_row(0, 0.1), _row(1, 0.2, extra=1), _row(2, 0.3)],
    [{"node": "a"}, _row(1, 0.2), _row(2, 0.3)],
    [{1: 0.5, "a": 2}, {1: 0.5, "a": 3}, {1: 0.5, "a": 4}],
    [{"a": 0.5, None: 2}, {"a": 0.5, None: 3}, {"a": 1.5, None: 4}],
    [{}, {}], [{"a": [1.5]}, {"a": 2.5}], [{"a": {"b": 1}}, {"a": 2}],
]


def _edge_examples(test):
    for rows in EDGE_ROWS:
        test = example(node_ids={}, rows=rows, t_star=None, extra=None,
                       block=2)(test)
    return test


@_edge_examples
@given(node_ids=st.dictionaries(NAMES, st.integers(0, 10**6), max_size=8),
       rows=row_lists(), t_star=st.one_of(st.none(), FLOATS),
       extra=st.recursive(SCALARS, lambda inner: st.one_of(
           st.lists(inner, max_size=3), st.tuples(inner, inner),
           st.dictionaries(st.one_of(NAMES, st.integers(0, 3)), inner,
                           max_size=3)), max_leaves=8),
       block=st.sampled_from([1, 2, 3, 1024]))
@settings(max_examples=300, deadline=None)
def test_write_report_json_matches_json_dump(node_ids, rows, t_star, extra,
                                             block):
    report = {"parameters": {"dag_file": "déjà.csv", "dw": [1, 2],
                             "combiner": None},
              "structure": {"depth_sizes": {"1": 3}, "is_tree": False},
              "node_ids": node_ids, "t_star": t_star, "extra": extra,
              "counts": {"base": len(rows), "discoveries": len(rows)},
              "discoveries": rows}
    want = io.StringIO()
    json.dump(report, want, indent=2)
    want.write("\n")
    got = io.StringIO()
    focusfdr_io._BLOCK = block
    try:
        write_report_json(report, got)
    finally:
        focusfdr_io._BLOCK = BLOCK
    assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 1])
def test_write_report_json_across_block_bounds(n):
    node_ids = {f"GO:{{{k}}}": k for k in range(n)}
    rows = [{"node": f"GO:{{{k}}}", "id": k, "depth": 1 + k % 7,
             "p": k / 7e3, "p_used": k / 7e3, "weight": 1.5,
             "weighted_p": k / 7e3 * 1.5} for k in range(n)]
    ids = list(node_ids.values())
    report = {"nested": {"node_ids": node_ids, "ids": ids,
                         "discoveries": rows},
              "listed": [node_ids, tuple(ids), rows]}
    got = io.StringIO()
    write_report_json(report, got)
    assert got.getvalue() == json.dumps(report, indent=2) + "\n"


def test_write_report_json_golden_shapes():
    for value in ({}, [], {"a": []}, {"a": {}}, [[]], {"x": (1, [2.5])},
                  {"n": float("nan"), "i": [float("inf"), -float("inf")]}):
        got = io.StringIO()
        write_report_json(value, got)
        assert got.getvalue() == json.dumps(value, indent=2) + "\n"


# ----------------------------------------------------- isolated hypotheses

def test_node_rows_declare_isolated_nodes(tmp_path):
    path = write(tmp_path / "e.csv", "parent,child\nx,\na,b\nb,\nz, \n")
    names, ids, edges = read_edge_csv(path)
    assert names == ["x", "a", "b", "z"]
    assert edges.tolist() == [[1, 2]]
    only = write(tmp_path / "n.csv", "parent,child\nx,\ny,\n")
    names, _, edges = read_edge_csv(only)
    assert names == ["x", "y"] and edges.shape == (0, 2)


@pytest.mark.parametrize("rows,message", [
    ("", ": no edges found"),
    ("\n,\n", ": no edges found"),
    ("a,b\n,b\n", ":3: empty node name"),
    ("a,\n,\n,a\n", ":4: empty node name"),
    ("a,\nb,b\n", ":3: self-loop at node 'b'"),
    ("a,b\na,\na,b\n", ":4: duplicate edge 'a' -> 'b'"),
])
def test_node_rows_keep_edge_errors(tmp_path, rows, message):
    path = write(tmp_path / "e.csv", "parent,child\n" + rows)
    with pytest.raises(ParseError) as info:
        read_edge_csv(path)
    assert str(info.value) == path + message


def test_export_then_read_round_trips_isolated_nodes(tmp_path):
    dag = build_dag(6, [(4, 1), (1, 2), (4, 2)])
    names = [f"n{i}" for i in range(6)]
    path = tmp_path / "e.csv"
    export_edge_csv(dag, names, path)
    assert path.read_text().splitlines() == [
        "parent,child", "n1,n2", "n4,n1", "n4,n2", "n0,", "n3,", "n5,"]
    back_names, _, edges = read_edge_csv(str(path))
    assert sorted(back_names) == names
    assert {(back_names[a], back_names[b]) for a, b in edges.tolist()} == \
        {(names[a], names[b]) for a, b in dag.edges}


@pytest.mark.parametrize("reader", [read_dag, read_edge_csv])
def test_readers_refuse_a_cycle_naming_file_and_node(tmp_path, reader):
    path = write(tmp_path / "e.csv", "parent,child\na,b\nb,c\nc,a\n")
    with pytest.raises(CycleDetectedError) as info:
        reader(path)
    node = info.value.node
    assert node in (0, 1, 2)
    assert str(info.value) == (f"{path}: edge set contains a directed cycle "
                               f"through node {'abc'[node]!r}")


@pytest.mark.parametrize("reader", [read_dag, read_edge_csv])
def test_readers_check_the_edges_once(tmp_path, monkeypatch, reader):
    calls, check_edges = [], focusfdr_dag.check_edges

    def counted(*args):
        calls.append(args)
        return check_edges(*args)
    monkeypatch.setattr(focusfdr_dag, "check_edges", counted)
    monkeypatch.setattr(focusfdr_io, "check_edges", counted, raising=False)
    reader(write(tmp_path / "e.csv", "parent,child\na,b\nb,c\na,c\nd,\n"))
    assert len(calls) == 1


DAG_ARRAYS = ("child_indptr", "child_indices", "depth", "edge_parent",
              "edge_child", "topo_order", "node_ptr", "level_ptr",
              "parent_start", "in_degree", "roots", "leaves")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_read_dag_of_shuffled_file_matches_file_order_build(tmp_path, seed):
    # the reader returns its edges sorted by (parent, child), and the Dag
    # built from them is the one the edges in file order build
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, max_m=40)
    rows = ([f"n{a},n{b}" for a, b in dag.edges]
            + [f"n{v}," for v in range(dag.m)])
    rng.shuffle(rows)
    path = write(tmp_path / "e.csv", "\n".join(["parent,child", *rows, ""]))
    names, ids, edges = read_edge_csv(path)
    in_file = [(ids[a], ids[b]) for a, b in (r.split(",") for r in rows) if b]
    assert edges.dtype == np.intp and edges.shape == (len(in_file), 2)
    assert edges.tolist() == sorted(map(list, in_file))
    got, want = read_dag(path)[2], build_dag(len(names), in_file)
    for name in DAG_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_flat_family_is_one_root_group(tmp_path, capsys):
    dag = write(tmp_path / "e.csv", "parent,child\n" +
                "".join(f"h{i},\n" for i in range(5)))
    pv = write(tmp_path / "p.csv", "node,p\nh0,0.001\nh1,0.002\nh2,0.5\n"
                                   "h3,0.9\nh4,0.003\n")
    flat = analyze(AnalysisRequest(dag_file=dag, pvalues_file=pv,
                                   method="wfbh", filter="ds", q=0.05))
    assert flat["structure"]["n_d"] == {"1": 1}
    assert flat["structure"]["depth_sizes"] == {"1": 5}
    assert [r["node"] for r in flat["discoveries"]] == ["h0", "h1", "h4"]
    bh = analyze(AnalysisRequest(dag_file=dag, pvalues_file=pv, method="bh",
                                 q=0.05))
    assert bh["counts"]["discoveries"] == 3
    assert main(["graph-info", "--dag", dag]) == 0
    assert json.loads(capsys.readouterr().out)["n_roots"] == 5


# -------------------------------------------- intersection-mode node names

@pytest.mark.parametrize("annotations,message", [
    # two edges break the nesting; the one stored first (by child depth,
    # child, parent) is named
    ("top,g1\nmid,g1\nmid,g2\nleaf,g3\n",
     "items of node 'mid' not contained in its parent 'top'"),
    ("top,g1\ntop,g2\nmid,g1\nleaf,g3\n",
     "items of node 'leaf' not contained in its parent 'mid'"),
    ("top,g1\nleaf,g1\n", "node 'mid' has no items"),
])
def test_cli_intersection_errors_name_file_and_nodes(tmp_path, capsys,
                                                     annotations, message):
    dag = write(tmp_path / "e.csv", "parent,child\nmid,leaf\ntop,mid\n")
    items = write(tmp_path / "ann.csv", "node,item\n" + annotations)
    itemp = write(tmp_path / "ip.csv", "item,p\ng1,0.1\ng2,0.2\ng3,0.3\n")
    code = main(["analyze", "--dag", dag, "--pvalues", itemp,
                 "--items", items, "--method", "bh"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {items}: {message}\n"


# ------------------------------------ faults no other test reaches, and BOMs

@pytest.mark.parametrize("annotations,message", [
    ("top,g1\nmid,g1\nghost,g1\nleaf,g1\n", ":4: unknown node 'ghost'"),
    ("top,g1\nmid,g9\nleaf,g1\n", ":3: unknown item 'g9'"),
    # within a line the node is checked first
    ("top,g1\nghost,g9\n", ":3: unknown node 'ghost'"),
])
def test_cli_annotation_faults_name_file_and_line(tmp_path, capsys,
                                                  annotations, message):
    dag = write(tmp_path / "e.csv", "parent,child\nmid,leaf\ntop,mid\n")
    items = write(tmp_path / "ann.csv", "node,item\n" + annotations)
    itemp = write(tmp_path / "ip.csv", "item,p\ng1,0.1\ng2,0.2\n")
    code = main(["analyze", "--dag", dag, "--pvalues", itemp,
                 "--items", items, "--method", "bh"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {items}{message}\n"


@pytest.mark.parametrize("mode,empty", [
    ("items", "--dag"), ("items", "--pvalues"), ("items", "--items"),
    ("node", "--pvalues")])
def test_cli_empty_file_names_the_file(tmp_path, capsys, mode, empty):
    flags = {"--dag": write(tmp_path / "e.csv", "parent,child\ntop,leaf\n")}
    if mode == "node":
        flags["--pvalues"] = write(tmp_path / "p.csv",
                                   "node,p\ntop,0.1\nleaf,0.2\n")
    else:
        flags["--pvalues"] = write(tmp_path / "ip.csv", "item,p\ng1,0.1\n")
        flags["--items"] = write(tmp_path / "ann.csv",
                                 "node,item\ntop,g1\nleaf,g1\n")
    flags[empty] = write(tmp_path / "empty.csv", "")
    args = [text for flag, path in flags.items() for text in (flag, path)]
    assert main(["analyze", *args, "--method", "bh"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {flags[empty]}: empty file\n"


BOM_CASES = {
    "node": {"e.csv": "parent,child\ntop,mid\nmid,leaf\ntop,other\n",
             "p.csv": "node,p\ntop,0.001\nmid,0.01\nleaf,0.02\nother,0.6\n"},
    "items": {"e.csv": "parent,child\ntop,mid\nmid,leaf\n",
              "p.csv": "item,p\ng1,0.001\ng2,0.02\ng3,0.7\n",
              "ann.csv": "node,item\ntop,g1\ntop,g2\ntop,g3\nmid,g1\n"
                         "mid,g2\nleaf,g2\n"}}


@pytest.mark.parametrize("mode", sorted(BOM_CASES))
def test_byte_order_mark_is_accepted(tmp_path, mode):
    # files saved as "CSV UTF-8" by spreadsheet programs start with a BOM
    check_byte_order_mark(tmp_path, BOM_CASES[mode])


@pytest.mark.parametrize("mode", sorted(BOM_CASES))
def test_byte_order_mark_through_csv_reader(tmp_path, mode):
    check_byte_order_mark(tmp_path, {name: quote_header(text) for name, text
                                     in BOM_CASES[mode].items()})


def check_byte_order_mark(tmp_path, files):
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):
        folder = tmp_path / encoding
        folder.mkdir()
        for name, text in files.items():
            (folder / name).write_text(text, encoding=encoding)
        assert (folder / "e.csv").read_bytes().startswith(
            b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
        items = str(folder / "ann.csv") if "ann.csv" in files else None
        report = analyze(AnalysisRequest(
            dag_file=str(folder / "e.csv"), pvalues_file=str(folder / "p.csv"),
            items_file=items, method="wfbh", q=0.2))
        del report["parameters"]        # names the folder
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["counts"]["discoveries"] > 0
