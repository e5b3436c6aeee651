"""File formats and the end-to-end analysis pipeline behind the CLI.

Input files are UTF-8 CSV, a leading byte-order mark skipped.  Edge lists
have a ``parent,child`` header and string node names; a row with an empty
child cell declares a node without an edge.  P-value files are
``node,p``.  Intersection mode replaces the node p-value file with an
item-level ``item,p`` file plus a ``node,item`` annotation file.  Node
names map to dense internal ids in order of first appearance, and reports
echo that mapping.  Each reader makes one pass over its file into Python
lists, then runs its checks as array operations; an error names the first
faulty line in file order, with the message a check of each line in turn
would give.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .combine import (AnnotationNotNestedError, EmptyAnnotationError,
                      intersection_dag_pvalues, smooth_all_descendants)
from .dag import (CycleDetectedError, DuplicateEdgeError, SelfLoopError,
                  build_dag, check_edges, disjoint_descendant_depths, is_tree,
                  repeats)
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


def _rows(path, header):
    """(record number, first cell, second cell) of each data row of a
    two-column CSV file with the given header, cells stripped (``_where``
    names a record's line).  Blank rows are skipped; a row of another width
    raises."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip().lower() for h in first] != list(header):
            raise ParseError(f"{path}:1: expected header {','.join(header)!r}")
        for record, row in enumerate(reader, start=1):
            if len(row) == 2:
                a, b = row[0].strip(), row[1].strip()
                if a or b:
                    yield record, a, b
            elif any(c.strip() for c in row):
                raise ParseError(f"{_where(path, record)}: expected 2 columns")


def _where(path, record):
    """The "path:line" on which data record ``record`` starts, one line past
    where the record before it ends, since a quoted cell may span lines."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(islice(reader, record - 1, None))      # records 0 .. record - 1
        return f"{path}:{reader.line_num + 1}"


def _where_row(path, header, k):
    """``_where`` of the k-th data row (from 0) that ``_rows`` yields."""
    return _where(path, next(islice(_rows(path, header), k, None))[0])


def read_edge_csv(path):
    """Parse a parent,child edge list; returns (names, name_to_id, edges).

    Names map to dense ids in order of first appearance, and ``edges`` is
    an (E, 2) intp array of (parent, child) ids in sorted order.  A row whose
    child cell is empty declares its parent node without an edge.  Faults
    are reported for the first faulty line: a wrong column count or an
    empty parent ends the pass, but a self-loop or duplicate edge on an
    earlier line, found afterwards by ``check_edges``, is reported first.
    """
    header = ("parent", "child")
    ids = {}
    intern = ids.setdefault
    flat = []
    add = flat.append
    row_error = None
    try:
        for record, parent, child in _rows(path, header):
            if not parent:
                raise ParseError(f"{_where(path, record)}: empty node name")
            add(intern(parent, len(ids)))
            add(intern(child, len(ids)) if child else -1)
    except ParseError as exc:
        row_error = exc
    pairs = np.array(flat, dtype=np.intp).reshape(-1, 2)
    is_edge = pairs[:, 1] >= 0
    edges = pairs if is_edge.all() else pairs[is_edge]
    try:
        order = check_edges(len(ids), edges[:, 0], edges[:, 1])
    except (SelfLoopError, DuplicateEdgeError) as exc:
        at = _where_row(path, header, np.flatnonzero(is_edge)[exc.index])
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
    names, texts, row_error = [], [], None
    try:
        for _, name, text in _rows(path, header):
            names.append(name)
            texts.append(text)
    except ParseError as exc:
        row_error = exc
    if name_to_id is None:
        name_to_id = {name: i for i, name in enumerate(dict.fromkeys(names))}
    ids = np.fromiter(map(name_to_id.get, names, repeat(-1)), dtype=np.intp,
                      count=len(names))
    values, bad_text = _parse_floats(texts)
    unknown = ids < 0
    repeated, _ = repeats(np.where(unknown, -1 - np.arange(ids.size), ids))
    bad = unknown | repeated | bad_text | ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        where = _where_row(path, header, k)
        if unknown[k]:
            raise UnknownNodeInPvaluesError(
                f"{where}: node {names[k]!r} not present in the graph")
        if repeated[k]:
            raise ParseError(f"{where}: {duplicate} {names[k]!r}")
        if bad_text[k]:
            raise ParseError(f"{where}: bad p-value {texts[k]!r}")
        raise ParseError(f"{where}: p-value {texts[k]!r} not in [0, 1]")
    if row_error is not None:
        raise row_error
    return name_to_id, ids, values


def read_pvalue_csv(path, name_to_id):
    """Parse node,p rows into a dense vector; every node exactly once."""
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
    sets = [set() for _ in range(len(name_to_id))]
    for record, node, item in _rows(path, ("node", "item")):
        if node not in name_to_id:
            raise ParseError(f"{_where(path, record)}: unknown node {node!r}")
        if item not in item_to_id:
            raise ParseError(f"{_where(path, record)}: unknown item {item!r}")
        sets[name_to_id[node]].add(item_to_id[item])
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
    depths, groups = plan.depths, plan.groups
    check_dw_depths(request.dw, depths.max_depth, request.dag_file)

    try:
        if request.items_file is not None:
            _, item_to_id, item_p = read_item_pvalue_csv(request.pvalues_file)
            annotations = read_annotation_csv(request.items_file, name_to_id,
                                              item_to_id)
            p_original = intersection_dag_pvalues(dag, annotations, item_p,
                                                  comb)
            p_used = p_original
        else:
            p_original = read_pvalue_csv(request.pvalues_file, name_to_id)
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

    filtered = request.method in FOCUSED
    result = run_procedure(plan, p_used, request.method, fspec, request.q,
                           reshaped, request.yk_divisor)
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
        "structure": structure_summary(dag, depths, groups),
        "filter_monotonic": is_monotonic(fspec, dag) if filtered else None,
        "node_ids": dict(name_to_id),
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
    ``node_ids`` map and each discovery row, is encoded in one call of
    json's C encoder with a line break as the item separator; each break
    then becomes a comma and the next line's indent.
    """
    stream.write(_json(report, "\n"))
    stream.write("\n")


# A line break never appears inside the C encoder's output except as this
# separator: it escapes line breaks in strings.
_ITEM_PER_LINE = json.JSONEncoder(separators=("\n", ": "))
_JSON_SCALARS = {str, int, float, bool, type(None)}


def _json(value, newline):
    """``json.dumps(value, indent=2)`` with each line break replaced by
    ``newline``: the break and the indent of the line ``value`` starts on."""
    kind = type(value)
    if (kind is dict or kind is list or kind is tuple) and value:
        inner = newline + "  "
        if _JSON_SCALARS.issuperset(map(type, value.values() if kind is dict
                                        else value)):
            text = _ITEM_PER_LINE.encode(value)
            return (text[0] + inner + text[1:-1].replace("\n", "," + inner)
                    + newline + text[-1])
        if kind is not dict:
            return ("[" + ",".join([inner + _json(v, inner) for v in value])
                    + newline + "]")
        if all(type(k) is str for k in value):
            return ("{" + ",".join([inner + encode_basestring_ascii(k) + ": "
                                    + _json(v, inner)
                                    for k, v in value.items()])
                    + newline + "}")
    return json.dumps(value, indent=2).replace("\n", newline)


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
