"""Input parsing and Dag construction: which fault is reported when a file
or an edge list holds several, the array Dag against a per-edge reference
loop, isolated nodes, and the report writer against ``json.dump``."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfdr.checks import random_dag
from focusfdr.cli import EXIT_INPUT, main
from focusfdr.dag import (CycleDetectedError, DagError, DuplicateEdgeError,
                          NodeIdOutOfRangeError, SelfLoopError, build_dag)
from focusfdr.io import (AnalysisRequest, MissingPvalueError, ParseError,
                         UnknownNodeInPvaluesError, analyze, export_edge_csv,
                         read_annotation_csv, read_dag, read_edge_csv,
                         read_item_pvalue_csv, read_pvalue_csv,
                         write_report_json)


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


@pytest.mark.parametrize("reader,rows,message", [
    ("edges", f"{QUOTED},c\nx,x\n", ":4: self-loop at node 'x'"),
    ("edges", f"{QUOTED},c\n{QUOTED},c\n", ":4: duplicate edge"),
    ("edges", f"{QUOTED},c\n,c\n", ":4: empty node name"),
    ("edges", f"{QUOTED},c\nx,y,z\n", ":4: expected 2 columns"),
    ("pvalues", f"{QUOTED},0.1\nzz,0.2\n", ":4: node 'zz' not present"),
    ("items", f"{QUOTED},0.1\ng,x\n", ":4: bad p-value 'x'"),
    ("items", f"{QUOTED},0.1\n\ng\n", ":5: expected 2 columns"),
    ("annotations", f"{QUOTED},g\nzz,g\n", ":4: unknown node 'zz'"),
    ("annotations", f"{QUOTED},g\n{QUOTED},zz\n", ":4: unknown item 'zz'"),
], ids=["edges-self-loop", "edges-duplicate", "edges-empty-name",
        "edges-columns", "pvalues-unknown", "items-bad-p", "items-columns",
        "annotations-node", "annotations-item"])
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
    for name in ("edges", "children", "parents"):
        assert getattr(dag, name) == want[name], name
    assert isinstance(dag.edges, frozenset)
    assert dag.children is dag.children     # cached
    for array in (dag.depth, dag.edge_parent, dag.child_indices,
                  dag.parent_start, dag.topo_order, dag.node_ptr, dag.roots,
                  dag.leaves):
        assert array.dtype == np.intp
        assert not array.flags.writeable


# ------------------------------------------------------- the report writer

NAMES = st.text(alphabet=st.sampled_from(['a', 'é', '"', '\\', '\n', ',',
                                          '☃', '\U0001f600', ' ']),
                max_size=6)
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 0.1]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                    FLOATS, NAMES)
ROWS = st.fixed_dictionaries({"node": NAMES, "id": st.integers(0, 10**6),
                              "depth": st.integers(1, 20), "p": FLOATS,
                              "p_used": FLOATS, "weight": FLOATS,
                              "weighted_p": FLOATS})


@given(node_ids=st.dictionaries(NAMES, st.integers(0, 10**6), max_size=8),
       rows=st.lists(ROWS, max_size=4), t_star=st.one_of(st.none(), FLOATS),
       extra=st.recursive(SCALARS, lambda inner: st.one_of(
           st.lists(inner, max_size=3), st.tuples(inner, inner),
           st.dictionaries(st.one_of(NAMES, st.integers(0, 3)), inner,
                           max_size=3)), max_leaves=8))
@settings(max_examples=300, deadline=None)
def test_write_report_json_matches_json_dump(node_ids, rows, t_star, extra):
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
    write_report_json(report, got)
    assert got.getvalue() == want.getvalue()


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
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):
        folder = tmp_path / encoding
        folder.mkdir()
        for name, text in BOM_CASES[mode].items():
            (folder / name).write_text(text, encoding=encoding)
        assert (folder / "e.csv").read_bytes().startswith(
            b"\xef\xbb\xbf") == (encoding == "utf-8-sig")
        items = str(folder / "ann.csv") if mode == "items" else None
        report = analyze(AnalysisRequest(
            dag_file=str(folder / "e.csv"), pvalues_file=str(folder / "p.csv"),
            items_file=items, method="wfbh", q=0.2))
        del report["parameters"]        # names the folder
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["counts"]["discoveries"] > 0
