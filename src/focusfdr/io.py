"""File formats and the end-to-end analysis pipeline behind the CLI.

Edge lists are UTF-8 CSV with a ``parent,child`` header and string node
names; p-value files are ``node,p``.  Intersection mode replaces the node
p-value file with an item-level ``item,p`` file plus a ``node,item``
annotation file.  Node names map to dense internal ids in order of first
appearance, and reports echo that mapping.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .combine import (Combiner, UndefinedSegmentError,
                      intersection_dag_pvalues, smooth_all_descendants)
from .dag import (CycleDetectedError, build_dag, compute_depths,
                  disjoint_descendant_depths, group_index, is_tree)
from .filters import FilterSpec, is_monotonic
from .procedures import FOCUSED, check_procedure, run_procedure
from .special import DomainError
from .weights import WeightConfig, parse_lambda_policy


class ParseError(ValueError):
    pass


class UnknownNodeInPvaluesError(ValueError):
    pass


class MissingPvalueError(ValueError):
    pass


def _rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != list(expected_header):
            raise ParseError(
                f"{path}:1: expected header {','.join(expected_header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{path}:{lineno}: expected "
                                 f"{len(expected_header)} columns")
            yield lineno, [c.strip() for c in row]


def read_edge_csv(path):
    """Parse a parent,child edge list; returns (names, name_to_id, edges)."""
    names = []
    ids = {}

    def intern(name, lineno):
        if not name:
            raise ParseError(f"{path}:{lineno}: empty node name")
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    edges, seen = [], set()
    for lineno, (parent, child) in _rows(path, ("parent", "child")):
        edge = (intern(parent, lineno), intern(child, lineno))
        if edge[0] == edge[1]:
            raise ParseError(f"{path}:{lineno}: self-loop at node {parent!r}")
        if edge in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate edge {parent!r} -> {child!r}")
        seen.add(edge)
        edges.append(edge)
    if not edges:
        raise ParseError(f"{path}: no edges found")
    return names, ids, edges


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


def _parse_p(path, lineno, text):
    try:
        p = float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: bad p-value {text!r}") from None
    if not 0.0 <= p <= 1.0:  # also rejects nan
        raise ParseError(f"{path}:{lineno}: p-value {text!r} not in [0, 1]")
    return p


def read_pvalue_csv(path, name_to_id):
    """Parse node,p rows into a dense vector; every node exactly once."""
    values = [0.0] * len(name_to_id)
    seen = bytearray(len(name_to_id))
    for lineno, (name, text) in _rows(path, ("node", "p")):
        idx = name_to_id.get(name)
        if idx is None:
            raise UnknownNodeInPvaluesError(
                f"{path}:{lineno}: node {name!r} not present in the graph")
        if seen[idx]:
            raise ParseError(f"{path}:{lineno}: duplicate p-value for {name!r}")
        values[idx] = _parse_p(path, lineno, text)
        seen[idx] = 1
    if not all(seen):
        missing = [name for name, idx in name_to_id.items() if not seen[idx]]
        raise MissingPvalueError(f"{path}: missing p-value for node(s) "
                                 + ", ".join(sorted(missing)[:5]))
    return np.array(values, dtype=float)


def read_item_pvalue_csv(path):
    """Parse item,p rows; returns (item_names, item_to_id, values)."""
    names, ids, vals = [], {}, []
    for lineno, (name, text) in _rows(path, ("item", "p")):
        if name in ids:
            raise ParseError(f"{path}:{lineno}: duplicate item {name!r}")
        ids[name] = len(names)
        names.append(name)
        vals.append(_parse_p(path, lineno, text))
    if not names:
        raise ParseError(f"{path}: no items found")
    return names, ids, np.asarray(vals)


def read_annotation_csv(path, name_to_id, item_to_id):
    """Parse node,item rows into per-node item index sets."""
    sets = [set() for _ in range(len(name_to_id))]
    for lineno, (node, item) in _rows(path, ("node", "item")):
        if node not in name_to_id:
            raise ParseError(f"{path}:{lineno}: unknown node {node!r}")
        if item not in item_to_id:
            raise ParseError(f"{path}:{lineno}: unknown item {item!r}")
        sets[name_to_id[node]].add(item_to_id[item])
    return sets


def export_edge_csv(dag, names, path):
    """Write a Dag back out in the edge-list format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parent", "child"])
        for a, b in sorted(dag.edges):
            writer.writerow([names[a], names[b]])


def structure_summary(dag, depths, groups):
    """m, depths, group counts, tree-ness: the graph-info payload."""
    return {
        "m": dag.m,
        "max_depth": depths.max_depth,
        "depth_sizes": {str(d): int(len(depths.levels[d]))
                        for d in sorted(depths.levels)},
        "n_d": {str(d): int(groups.n_d[d]) for d in sorted(groups.n_d)},
        "is_tree": is_tree(dag),
        "disjoint_descendant_depths":
            sorted(disjoint_descendant_depths(dag, depths)),
        "n_roots": len(dag.roots),
        "n_leaves": len(dag.leaves),
    }


@dataclass(frozen=True)
class AnalysisRequest:
    """Everything one analysis run needs; mirrors the CLI flags."""

    dag_file: str
    pvalues_file: str
    method: str = "wfbh"
    filter: str = "ds"
    q: float = 0.05
    lambda_policy: str = "fixed:0.5"
    c: int = 1
    dw: object = "auto"
    combiner: str = None        # smoothing; item combination in items mode
    reshaping: str = None       # "by" for the reshaped variant
    items_file: str = None
    yk_divisor: float = 2.88

    def resolved_lambda(self):
        return parse_lambda_policy(self.lambda_policy, self.q)


def analyze(request):
    """Run one analysis end to end; returns the report as a plain dict."""
    if request.reshaping not in (None, "by"):
        raise ValueError(f"unknown reshaping {request.reshaping!r}")
    reshaped = request.reshaping == "by"
    check_procedure(request.method, reshaped, request.yk_divisor)
    names, name_to_id, dag = read_dag(request.dag_file)
    depths = compute_depths(dag)
    if not isinstance(request.dw, str):
        for d in sorted(request.dw):
            if not 1 <= d <= depths.max_depth:
                raise ValueError(
                    f"dw depth {d} is outside [1, {depths.max_depth}]: "
                    f"{request.dag_file} has max depth {depths.max_depth}")
    groups = group_index(dag, depths)
    lam = request.resolved_lambda()

    try:
        if request.items_file is not None:
            comb = Combiner.from_name(request.combiner or "simes")
            _, item_to_id, item_p = read_item_pvalue_csv(request.pvalues_file)
            annotations = read_annotation_csv(request.items_file, name_to_id,
                                              item_to_id)
            p_original = intersection_dag_pvalues(dag, annotations, item_p,
                                                  comb)
            p_used = p_original
        else:
            p_original = read_pvalue_csv(request.pvalues_file, name_to_id)
            p_used = p_original
            if request.combiner is not None:
                p_used = smooth_all_descendants(
                    dag, p_original, Combiner.from_name(request.combiner))
    except UndefinedSegmentError as exc:
        raise DomainError(
            f"{request.pvalues_file}: Stouffer is undefined at node "
            f"{names[exc.node]!r}: its block holds both a zero and a one"
        ) from None

    fspec = FilterSpec.from_name(request.filter)
    filtered = request.method in FOCUSED
    discoveries, weights_arr, result = run_procedure(
        request.method, dag, depths, groups, p_used, fspec, request.q,
        WeightConfig(lam=lam, c=request.c, dw=request.dw), reshaped,
        request.yk_divisor)

    rows = []
    for v in sorted(discoveries,
                    key=lambda i: (weights_arr[i] * p_used[i], i)):
        rows.append({
            "node": names[v],
            "id": int(v),
            "depth": int(depths.depth[v]),
            "p": float(p_original[v]),
            "p_used": float(p_used[v]),
            "weight": float(weights_arr[v]),
            "weighted_p": float(weights_arr[v] * p_used[v]),
        })

    report = {
        "parameters": {
            "dag_file": request.dag_file,
            "pvalues_file": request.pvalues_file,
            "items_file": request.items_file,
            "method": request.method,
            "filter": fspec.name if filtered else None,
            "q": request.q,
            "lambda": lam,
            "lambda_policy": request.lambda_policy,
            "c": request.c,
            "dw": (request.dw if isinstance(request.dw, str)
                   else sorted(request.dw)),
            "combiner": request.combiner,
            "reshaping": request.reshaping,
        },
        "structure": structure_summary(dag, depths, groups),
        "filter_monotonic": is_monotonic(fspec, dag) if filtered else None,
        "node_ids": {name: idx for name, idx in name_to_id.items()},
        "t_star": None if result is None else result.t_star,
        "fdp_hat_at_t_star": None if result is None else result.fdp_hat_at_tstar,
        "counts": {
            "base": (len(discoveries) if result is None
                     else len(result.base_set)),
            "discoveries": len(discoveries),
        },
        "discoveries": rows,
    }
    return report


def write_report_json(report, stream):
    json.dump(report, stream, indent=2, sort_keys=False)
    stream.write("\n")


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
