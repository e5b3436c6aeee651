"""File formats and the end-to-end analysis pipeline behind the CLI.

Input files are UTF-8 CSV, a leading byte-order mark skipped.  Edge lists
have a ``parent,child`` header and string node names; a row with an empty
child cell declares a node without an edge.  P-value files are
``node,p``.  Intersection mode replaces the node p-value file with an
item-level ``item,p`` file plus a ``node,item`` annotation file.  Node
names map to dense internal ids in order of first appearance, and reports
echo that mapping.  Each reader works through its file a block of lines at
a time: a block is split at its line breaks and commas while the file holds
no quote, and read by ``csv.reader`` from the first quote on; its names
become ids in an intp array, and its checks run as array operations.  An
error names the first faulty line in file order, counted as the file is
read once, with the message a check of each line in turn would give.

``analyze`` runs its stages so that each one's data lives only while a
later stage reads it: the graph's part of the report (its structure
summary and whether the filter is monotonic on it) is computed before the
p-values are read, the structure plan (sibling groups and weight
workspace) is dropped once the procedure has run, and the report's
``node_ids`` is ``read_dag``'s own name table.  ``write_report_json``
encodes the report a block of items at a time and writes each piece as it
is made, so that the whole text is never held at once.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .combine import (AnnotationNotNestedError, EmptyAnnotationError,
                      intersection_dag_pvalues, smooth_all_descendants)
from .dag import (CycleDetectedError, DuplicateEdgeError, SelfLoopError,
                  _is_int, build_dag, check_edges, disjoint_descendant_depths,
                  is_tree, repeats)
from .filters import is_monotonic
from .procedures import (FOCUSED, NotATreeError, RunParams, StructurePlan,
                         run_procedure)
from .weights import check_dw_depths


class ParseError(ValueError):
    pass


class UnknownNodeInPvaluesError(ValueError):
    pass


class MissingPvalueError(ValueError):
    pass


# A reader holds one block's cell strings at a time.
_BLOCK = 1024


def _records(fh):
    """Yield the records of an open CSV file a block of lines at a time, as
    (cells, widths, starts, error): the block's raw cells in one list, each
    record's cell count, the line each starts on and then the line after
    them, and the ``csv.Error`` that ends the file there, if any.  A block
    whose text holds no quote and no line longer than csv's field limit is
    split at its line breaks, a record a line, then at commas; opened with
    ``newline=""``, the file breaks lines at "\\r\\n", "\\r" and "\\n", as
    ``csv.reader`` does.  From the first other block on, ``csv.reader``
    parses the file; it gives the same records wherever the split does, and
    a record it reads spans a line more than the line breaks in its cells."""
    limit = csv.field_size_limit()
    line = 1                                # the line a block starts on
    while lines := list(islice(fh, _BLOCK)):
        text = ",".join(lines)
        if '"' in text or (len(text) > limit
                           and max(map(len, lines)) > limit):
            break
        line, starts = line + len(lines), range(line, line + len(lines) + 1)
        # each line's break stays on its last cell, which readers strip
        cells = text.split(",")
        if len(cells) == 2 * len(lines):
            # 2 cells a line, and no line break in any first cell: then
            # every line's break ends a second cell, so each line has two
            firsts = "".join(cells[::2])
            if "\n" not in firsts and "\r" not in firsts:
                yield cells, [2] * len(lines), starts, None
                continue
        yield cells, [n + 1 for n in map(str.count, lines,
                                         repeat(","))], starts, None
    reader, more = csv.reader(chain(lines, fh)), True   # the rest, if any
    while more:
        rows, error, at = [], None, line + reader.line_num
        try:
            rows.extend(islice(reader, _BLOCK))     # keeps the rows read
        except csv.Error as exc:
            error = exc
        more = len(rows) == _BLOCK
        cells = list(chain.from_iterable(rows))
        starts = range(at, at + len(rows) + 1)
        if error is not None or line + reader.line_num > starts[-1]:
            # a record spans lines: "\r\n" is one break, as to the file
            starts = list(accumulate(
                [1 + t.count("\r") + t.count("\n") - t.count("\r\n")
                 for t in map(",".join, rows)], initial=at))
        yield cells, list(map(len, rows)), starts, error


def _table(path, header, named=False):
    """Yield the data rows of a two-column CSV file with the given header a
    block at a time, as (cells, lines): the rows' stripped cells, two a row
    in one list, and the line each row starts on.  Blank rows are skipped.
    A row of another width, a row with an empty first cell if ``named``,
    or a cell over csv's field limit raises once the rows before it are
    yielded."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        unread = True                               # the header
        for cells, widths, lines, error in _records(fh):
            cells = list(map(str.strip, cells))
            if unread and widths:
                width = widths.pop(0)
                if [h.lower() for h in cells[:width]] != list(header):
                    raise ParseError(f"{path}:1: expected header "
                                     f"{','.join(header)!r}")
                cells, lines, unread = cells[width:], lines[1:], False
            cells, kept, fault = _kept(cells, widths, lines, named)
            yield cells, kept
            if fault is not None:
                raise ParseError(f"{path}:{fault[0]}: {fault[1]}")
            if error is not None:
                raise ParseError(f"{path}:{lines[-1]}: {error}")
        if unread:
            raise ParseError(f"{path}: empty file")


def _kept(cells, widths, lines, named):
    """The stripped cells and lines of a block's non-blank rows up to its
    first faulty row, and (line, message) of that row or None.  ``lines``
    holds the line each row starts on."""
    n = len(widths)
    if widths.count(2) == n and "" not in cells[::2]:
        return cells, lines[:n], None
    kept, starts, at = [], [], 0
    for line, width in zip(lines, widths):
        row = cells[at:at + width]
        at += width
        if not any(row):
            continue
        if width != 2:
            return kept, starts, (line, "expected 2 columns")
        if named and not row[0]:
            return kept, starts, (line, "empty node name")
        kept += row
        starts.append(line)
    return kept, starts, None


def _intern(names, table, start=None):
    """The id each of ``names`` has in ``table``, -1 for a name not in it,
    as an intp array.  With ``start``, the names not in ``table`` join it
    first, with the ids start, start + 1, ... in order of first
    appearance."""
    if start is None:
        ids = map(table.get, names, repeat(-1))
    else:
        intern, shift = table.setdefault, start - len(table)
        ids = (intern(name, len(table) + shift) for name in names)
    return np.fromiter(ids, dtype=np.intp, count=len(names))


def read_edge_csv(path):
    """Parse a parent,child edge list; returns (names, name_to_id, edges).

    Names map to dense ids in order of first appearance, and ``edges`` is
    an (E, 2) intp array of (parent, child) ids in sorted order.  A row whose
    child cell is empty declares its parent node without an edge.  Faults
    are reported for the first faulty line: a wrong column count or an
    empty parent ends the pass, but a self-loop or duplicate edge on an
    earlier line, found afterwards by ``check_edges``, is reported first.
    """
    ids = {"": -1}      # an empty child cell: no edge; names count from 0
    blocks, spans, row_error = [np.empty(0, dtype=np.intp)], [], None
    try:
        for cells, lines in _table(path, ("parent", "child"), named=True):
            blocks.append(_intern(cells, ids, len(ids) - 1))
            spans.append(lines)
    except ParseError as exc:
        row_error = exc
    del ids[""]
    pairs = np.concatenate(blocks).reshape(-1, 2)
    is_edge = pairs[:, 1] >= 0
    edges = pairs if is_edge.all() else pairs[is_edge]
    try:
        order = check_edges(len(ids), edges[:, 0], edges[:, 1])
    except (SelfLoopError, DuplicateEdgeError) as exc:
        row = np.flatnonzero(is_edge)[exc.index]
        at = f"{path}:{list(chain.from_iterable(spans))[row]}"
        names = list(ids)
        parent, child = (names[v] for v in edges[exc.index])
        if isinstance(exc, SelfLoopError):
            raise ParseError(f"{at}: self-loop at node {parent!r}") from None
        raise ParseError(f"{at}: duplicate edge {parent!r} -> "
                         f"{child!r}") from None
    if row_error is not None:
        raise row_error
    if not ids:
        raise ParseError(f"{path}: no edges found")
    return list(ids), ids, edges[order]


def read_dag(path):
    """Parse an edge list and build its Dag; returns (names, name_to_id,
    dag).  A cycle is reported with the file and a node name on it."""
    names, ids, edges = read_edge_csv(path)
    try:
        dag = build_dag(len(names), edges)
    except CycleDetectedError as exc:
        raise CycleDetectedError(
            f"{path}: edge set contains a directed cycle through node "
            f"{names[exc.node]!r}", node=exc.node) from None
    return names, ids, dag


def _parse_floats(texts):
    """``float`` of each text (nan where it fails) and the mask of failures."""
    try:
        values = np.fromiter(map(float, texts), dtype=float, count=len(texts))
        return values, np.zeros(len(texts), dtype=bool)
    except ValueError:
        bad = np.array([not _is_float(t) for t in texts], dtype=bool)
        values = np.array([np.nan if b else float(t)
                           for t, b in zip(texts, bad)], dtype=float)
        return values, bad


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_pvalues(path, header, name_to_id, duplicate):
    """One pass over name,p rows; returns (name_to_id, ids, values), with
    the ids the names map to and the p-values parsed by ``float``.  With
    ``name_to_id`` None, names map to dense ids in order of first
    appearance.

    The first faulty line raises.  Within a line the checks run in the
    order: unknown name, name seen before (``duplicate`` formats that
    message), text that does not parse, p outside [0, 1] (nan included).
    A wrong column count ends the pass, but a fault on an earlier line is
    reported first.
    """
    table = {} if name_to_id is None else name_to_id
    seen = np.zeros(len(table) + 1, dtype=bool)     # by id, then one slot
    id_blocks, value_blocks = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for cells, lines in _table(path, header):
        names, texts = cells[::2], cells[1::2]
        ids = _intern(names, table,
                      len(table) if name_to_id is None else None)
        values, bad_text = _parse_floats(texts)
        if seen.size <= len(table):
            seen = np.concatenate([seen, np.zeros(len(table) + 1 - seen.size,
                                                  dtype=bool)])
        unknown = ids < 0
        # an unknown name reads the last slot, but is reported as unknown
        repeated = seen[ids] | repeats(ids)[0]
        bad = (unknown | repeated | bad_text
               | ~((values >= 0.0) & (values <= 1.0)))
        if bad.any():
            k = int(np.argmax(bad))
            where = f"{path}:{lines[k]}"
            if unknown[k]:
                raise UnknownNodeInPvaluesError(
                    f"{where}: node {names[k]!r} not present in the graph")
            if repeated[k]:
                raise ParseError(f"{where}: {duplicate} {names[k]!r}")
            if bad_text[k]:
                raise ParseError(f"{where}: bad p-value {texts[k]!r}")
            raise ParseError(f"{where}: p-value {texts[k]!r} not in [0, 1]")
        seen[ids] = True
        id_blocks.append(ids)
        value_blocks.append(values)
    return table, np.concatenate(id_blocks), np.concatenate(value_blocks)


def _check_ids(table, what):
    """Refuse ids other than 0 .. n - 1, one each, by ``_is_int``."""
    ids = list(table.values())
    if not (all(map(_is_int, dict(zip(map(type, ids), ids)).values()))
            and sorted(ids) == list(range(len(ids)))):
        raise ValueError(f"{what} must map its names onto 0 .. {len(ids) - 1}")


def read_pvalue_csv(path, name_to_id):
    """Parse node,p rows into a dense vector; every node exactly once."""
    _check_ids(name_to_id, "name_to_id")
    return _pvalue_vector(path, name_to_id)


def _pvalue_vector(path, name_to_id):
    """``read_pvalue_csv`` on a table known to be dense, as ``read_dag``'s
    is: ``analyze`` skips the check, a pass over every id."""
    _, ids, values = _read_pvalues(path, ("node", "p"), name_to_id,
                                   "duplicate p-value for")
    if ids.size < len(name_to_id):
        seen = np.zeros(len(name_to_id), dtype=bool)
        seen[ids] = True
        missing = [name for name, idx in name_to_id.items() if not seen[idx]]
        raise MissingPvalueError(f"{path}: missing p-value for node(s) "
                                 + ", ".join(sorted(missing)[:5]))
    out = np.empty(len(name_to_id), dtype=float)
    out[ids] = values
    return out


def read_item_pvalue_csv(path):
    """Parse item,p rows; returns (item_names, item_to_id, values)."""
    item_to_id, _, values = _read_pvalues(path, ("item", "p"), None,
                                          "duplicate item")
    if not item_to_id:
        raise ParseError(f"{path}: no items found")
    return list(item_to_id), item_to_id, values


def read_annotation_csv(path, name_to_id, item_to_id):
    """Parse node,item rows into per-node item index sets."""
    _check_ids(name_to_id, "name_to_id")
    _check_ids(item_to_id, "item_to_id")
    sets = [set() for _ in range(len(name_to_id))]
    for cells, lines in _table(path, ("node", "item")):
        nodes = _intern(cells[::2], name_to_id)
        items = _intern(cells[1::2], item_to_id)
        bad = (nodes < 0) | (items < 0)
        if bad.any():
            k = int(np.argmax(bad))
            kind, name = (("node", cells[2 * k]) if nodes[k] < 0
                          else ("item", cells[2 * k + 1]))
            raise ParseError(f"{path}:{lines[k]}: unknown {kind} {name!r}")
        for node, item in zip(nodes.tolist(), items.tolist()):
            sets[node].add(item)
    return sets


def export_edge_csv(dag, names, path):
    """Write a Dag back out in the edge-list format: its edges by (parent,
    child), then a ``name,`` row for each node without any edge."""
    ptr = dag.child_indptr
    parent = np.repeat(np.arange(dag.m), np.diff(ptr))
    alone = np.flatnonzero((dag.in_degree == 0) & (ptr[1:] == ptr[:-1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parent", "child"])
        writer.writerows([names[a], names[b]] for a, b in
                         zip(parent.tolist(), dag.child_indices.tolist()))
        writer.writerows([names[v], ""] for v in alone.tolist())


def structure_summary(dag, depths, groups):
    """m, depths, group counts, tree-ness: the graph-info payload."""
    return {
        "m": dag.m,
        "max_depth": depths.max_depth,
        "depth_sizes": {str(d): n for d, n in
                        enumerate(groups.depth_sizes[1:].tolist(), 1)},
        "n_d": {str(d): n for d, n in enumerate(groups.n_d[1:].tolist(), 1)},
        "is_tree": is_tree(dag),
        "disjoint_descendant_depths":
            sorted(disjoint_descendant_depths(dag, depths)),
        "n_roots": len(dag.roots),
        "n_leaves": len(dag.leaves),
    }


@dataclass(frozen=True)
class AnalysisRequest(RunParams):
    """Everything one analysis run needs; mirrors the CLI flags.  The
    keyword-only q, lambda_policy, c, dw and yk_divisor are ``RunParams``'."""

    dag_file: str
    pvalues_file: str
    method: str = "wfbh"
    filter: str = "ds"
    combiner: str = None        # smoothing; item combination in items mode
    reshaping: str = None       # "by" for the reshaped variant
    items_file: str = None


def _discovery_rows(result, names, depth, p_original, p_used):
    """The report's discovery rows, by weighted p with ties to the smaller
    id, built from one ``tolist`` per column."""
    weights = result.weights_used
    ids = np.flatnonzero(result.found)
    wp = weights[ids] * p_used[ids]
    rank = np.lexsort((ids, wp))
    ids, wp = ids[rank], wp[rank]
    return [{"node": names[v], "id": v, "depth": d, "p": p, "p_used": pu,
             "weight": w, "weighted_p": x}
            for v, d, p, pu, w, x in zip(
                ids.tolist(), depth[ids].tolist(),
                p_original[ids].tolist(), p_used[ids].tolist(),
                weights[ids].tolist(), wp.tolist())]


def analyze(request):
    """Run one analysis end to end; returns the report as a plain dict."""
    if request.reshaping not in (None, "by"):
        raise ValueError(f"unknown reshaping {request.reshaping!r}")
    smoothing = request.combiner
    if request.items_file is not None:
        smoothing = smoothing or "simes"
    weight_config, [(_, fspec, reshaped)], comb = request.resolve(
        [(request.method, request.filter, request.reshaping == "by")],
        smoothing)
    names, name_to_id, dag = read_dag(request.dag_file)
    if request.method == "yekutieli-tree" and not is_tree(dag):
        v = int(np.argmax(dag.in_degree > 1))
        raise NotATreeError(
            f"{request.dag_file}: the top-down baseline requires a tree, but "
            f"node {names[v]!r} has {dag.in_degree[v]} parents")
    plan = StructurePlan(dag, weight_config)
    depths = plan.depths
    check_dw_depths(request.dw, depths.max_depth, request.dag_file)
    # the graph's part of the report, while no p-value is held yet
    filtered = request.method in FOCUSED
    structure = structure_summary(dag, depths, plan.groups)
    monotonic = is_monotonic(fspec, dag) if filtered else None

    try:
        if request.items_file is not None:
            _, item_to_id, item_p = read_item_pvalue_csv(request.pvalues_file)
            annotations = read_annotation_csv(request.items_file, name_to_id,
                                              item_to_id)
            p_original = intersection_dag_pvalues(dag, annotations, item_p,
                                                  comb)
            p_used = p_original
        else:
            p_original = _pvalue_vector(request.pvalues_file, name_to_id)
            p_used = p_original
            if comb is not None:
                p_used = smooth_all_descendants(dag, p_original, comb)
    except EmptyAnnotationError as exc:
        raise EmptyAnnotationError(
            f"{request.items_file}: node {names[exc.node]!r} has no items",
            node=exc.node) from None
    except AnnotationNotNestedError as exc:
        raise AnnotationNotNestedError(
            f"{request.items_file}: items of node {names[exc.child]!r} not "
            f"contained in its parent {names[exc.parent]!r}",
            parent=exc.parent, child=exc.child) from None

    result = run_procedure(plan, p_used, request.method, fspec, request.q,
                           reshaped, request.yk_divisor)
    del plan                    # its groups and weight workspace
    rows = _discovery_rows(result, names, depths.depth, p_original, p_used)

    report = {
        "parameters": {
            "dag_file": request.dag_file,
            "pvalues_file": request.pvalues_file,
            "items_file": request.items_file,
            "method": request.method,
            "filter": fspec.name if filtered else None,
            "q": request.q,
            "lambda": weight_config.lam,
            "lambda_policy": request.lambda_policy,
            "c": request.c,
            "dw": (request.dw if isinstance(request.dw, str)
                   else sorted(request.dw)),
            "combiner": request.combiner,
            "reshaping": request.reshaping,
        },
        "structure": structure,
        "filter_monotonic": monotonic,
        "node_ids": name_to_id,     # read_dag's table: nothing else holds it
        "t_star": result.t_star,
        "fdp_hat_at_t_star": result.fdp_hat_at_tstar,
        "counts": {"base": len(result.base_set), "discoveries": len(rows)},
        "discoveries": rows,
    }
    return report


def write_report_json(report, stream):
    """Write ``report`` as ``json.dump(report, stream, indent=2)`` would,
    byte for byte, then a newline.

    ``json`` indents only through its pure-Python encoder.  Here every
    non-empty dict or list whose items are all plain scalars, such as the
    ``node_ids`` map, and every list of such dicts, such as the discovery
    rows, is encoded by json's C encoder a block at a time, written as
    made, with a comma, a line break and the items' indent as the item
    separator.
    """
    stream.writelines(_json(report, "\n"))
    stream.write("\n")


_JSON_SCALARS = {str, int, float, bool, type(None)}


def _items_on_lines(indent):
    """json's C encoder with each item on a line of its own at ``indent``
    (a line break and spaces).  The encoder escapes line breaks in
    strings, so that its output holds none but these."""
    return json.JSONEncoder(separators=("," + indent, ": "))


def _blocks(value):
    """``value``, a non-empty dict, list or tuple, in consecutive pieces of
    the same type of at most ``_BLOCK`` items each."""
    if type(value) is dict:
        items = iter(value.items())
        return iter(lambda: dict(islice(items, _BLOCK)), {})
    return (value[at:at + _BLOCK] for at in range(0, len(value), _BLOCK))


def _json(value, newline):
    """Yield the pieces of ``json.dumps(value, indent=2)`` with each line
    break replaced by ``newline``: the break and the indent of the line
    ``value`` starts on."""
    kind = type(value)
    if (kind is dict or kind is list or kind is tuple) and value:
        inner = newline + "  "
        if _JSON_SCALARS.issuperset(map(type, value.values() if kind is dict
                                        else value)):
            encode = _items_on_lines(inner).encode
            yield ("{" if kind is dict else "[") + inner
            for at, block in enumerate(_blocks(value)):
                if at:
                    yield "," + inner
                yield encode(block)[1:-1]
            yield newline + ("}" if kind is dict else "]")
            return
        if kind is not dict and all(
                type(v) is dict and v
                and _JSON_SCALARS.issuperset(map(type, v.values()))
                for v in value):
            # rows of scalars, such as the discovery rows: an item break
            # followed by "{" starts a row, and gains the row's own lines
            row = inner + "  "
            split = inner + "}," + inner + "{" + row    # between two rows
            encode = _items_on_lines(row).encode
            yield "[" + inner + "{" + row
            for at, block in enumerate(_blocks(value)):
                if at:
                    yield split
                yield encode(block)[2:-2].replace("}," + row + "{", split)
            yield inner + "}" + newline + "]"
            return
        if kind is not dict:
            yield "["
            for at, v in enumerate(value):
                yield ("," + inner) if at else inner
                yield from _json(v, inner)
            yield newline + "]"
            return
        if all(type(k) is str for k in value):
            yield "{"
            for at, (k, v) in enumerate(value.items()):
                yield (("," + inner) if at else inner) + \
                    encode_basestring_ascii(k) + ": "
                yield from _json(v, inner)
            yield newline + "}"
            return
    yield json.dumps(value, indent=2).replace("\n", newline)


DISCOVERY_COLUMNS = ("node", "id", "depth", "p", "p_used", "weight",
                     "weighted_p")


def write_discoveries_csv(report, stream):
    writer = csv.writer(stream)
    writer.writerow(DISCOVERY_COLUMNS)
    for row in report["discoveries"]:
        writer.writerow([row[c] for c in DISCOVERY_COLUMNS])


SIM_COLUMNS = ("family", "setup", "method", "filter", "p_nonnull", "rho",
               "q", "lambda", "fdr_hat", "se_fdr", "power_hat", "se_power",
               "n_reps", "seed")


def write_simulation_csv(summary, stream):
    """One row per (method, p_nonnull) cell, fixed column order."""
    cfg = summary.config
    writer = csv.writer(stream)
    writer.writerow(SIM_COLUMNS)
    for cell in summary.cells:
        writer.writerow([
            cfg.family, cfg.setup, cell.method, cell.filter,
            f"{cell.p_nonnull:.10g}", f"{cfg.rho:.10g}", f"{cfg.q:.10g}",
            f"{cfg.resolved_lambda():.10g}",
            f"{cell.fdr_hat:.10g}", f"{cell.se_fdr:.10g}",
            f"{cell.power_hat:.10g}", f"{cell.se_power:.10g}",
            cell.n_reps, cfg.seed,
        ])
