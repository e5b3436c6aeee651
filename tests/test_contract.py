"""The input contract of the public API, walked over ``focusfdr.__all__``.

``TABLE`` holds, for every public callable (and more public calls that
take a p-vector, a count, a level or a list: ``ReshapingFn.by``,
``ReshapingFn.custom``, ``brute_force_tstar``, ``check_procedure``,
``check_superuniformity`` and ``RunParams`` at the top-down baseline, and
the "identity", "by" and "custom" kinds of ``ReshapingFn``), a call on
the chain 0 -> 1 -> 2, its valid arguments, and the kind of each argument
it checks.  Each kind has its bad values:

- p-vector: a (1, m) and an (m, 1) block, a 0-d array, a NaN, a 1.5 and,
  where the length is fixed, m + 1 entries;
- p-block (the (m,) or (R, m) input of smoothing): an (m, 1), a 0-d and a
  3-D array, a NaN, a 1.5, and (R, m + 1) and (R, m - 1) blocks;
- id in [low, high): True, 2.5, low - 1, high and "1";
- count or seed (an integer >= low, by ``dag._check_int``): True, 2.5,
  -1, "1" and, for a positive low, low - 1;
- level (a real number in an interval, by ``dag._check_real``): NaN, a
  value outside its documented interval, True, False, None and "0.5";
- a real number that no float can hold, 10**400, as the top-down
  baseline's q or yk-divisor or in a custom reshaping table;
- choice (a string that selects a policy, filter, combiner or graph family):
  5, None (where None is not itself valid) and a one-name list;
- list (a non-empty list or tuple, by ``dag._check_items``): (), [], a
  string, None, a bare item, a dict and an array of items and, where the
  items have a type, a 1-tuple of another;
- p_nonnull grid: each level value in a 1-tuple, and a list's bad values;
- the scale of a kind of reshaping without one: anything but the number 1,
  True included;
- the weight configuration: lambda as a level, c as a count and dw as
  5, None and "bogus".

Every bad value, put in place of its argument's valid one, must raise a
ValueError subclass whose message names the argument.  A bare IndexError,
TypeError, OverflowError or ZeroDivisionError, or a silent success,
fails.  A public
callable missing from the table fails too.
"""

import math

import numpy as np
import pytest

import focusfdr
from focusfdr import (Combiner, Dag, DepthIndex, FilterSpec, GroupIndex,
                      MethodSpec, ProcedureResult, ReshapingFn, RunParams,
                      SimConfig, SimSummary, StructurePlan, WeightConfig,
                      ancestors, apply_filter, assign_truth, auto_dw, bh,
                      build_dag, by_procedure, check_heredity,
                      compute_depths, condition1_check, dag_weights,
                      descendants, disjoint_descendant_depths, fbh,
                      generate_graph, group_index, intersection_dag_pvalues,
                      is_monotonic, is_tree, min_possible_weight,
                      run_procedure, run_simulation, sample_pvalues,
                      smooth_all_descendants, storey_bh, storey_pi0,
                      superuniformity_check, unity_weights,
                      weighted_reshaped_fbh, wfbh, yekutieli_tree)
from focusfdr.checks import check_superuniformity
from focusfdr.procedures import brute_force_tstar, check_procedure

M = 3
DAG = build_dag(M, [(0, 1), (1, 2)])
DEPTHS = compute_depths(DAG)
GROUPS = group_index(DAG, DEPTHS)
P = np.array([0.01, 0.02, 0.03])
ONES = np.ones(M)
DS = FilterSpec("ds")
PLAN = StructurePlan(DAG, WeightConfig())
NAN = math.nan


def pvector(fixed=True):
    bad = {"(1, m)": np.full((1, M), 0.5), "(m, 1)": np.full((M, 1), 0.5),
           "0-d": np.array(0.5), "NaN": [NAN, 0.5, 0.5],
           "1.5": [1.5, 0.5, 0.5]}
    if fixed:
        bad["m + 1"] = np.full(M + 1, 0.5)
    return "p-value", bad


def pblock():
    return "p-value", {
        "(m, 1)": np.full((M, 1), 0.5), "0-d": np.array(0.5),
        "3-D": np.full((1, 1, M), 0.5), "NaN": [[NAN, 0.5, 0.5]],
        "1.5": [[0.5, 1.5, 0.5]], "(R, m + 1)": np.full((2, M + 1), 0.5),
        "(R, m - 1)": np.full((2, M - 1), 0.5)}


def ident(low, high, named):
    return named, {"True": True, "2.5": 2.5, "low - 1": low - 1,
                   "high": high, "'1'": "1"}


def count(low, named):
    bad = {"True": True, "2.5": 2.5, "-1": -1, "'1'": "1"}
    if low > 0:
        bad["low - 1"] = low - 1
    return named, bad


def level(outside, named):
    return named, {"NaN": NAN, "outside": outside, "True": True,
                   "False": False, "None": None, "'0.5'": "0.5"}


def choice(valid, named, none=True):
    bad = {"5": 5, "[name]": [valid]}
    if none:
        bad["None"] = None
    return named, bad


def items(item, named, wrong=None):
    bad = {"()": (), "[]": [], "'x'": "x", "None": None,
           f"bare {item!r}": item, "dict": {item: 1},
           "array": np.array([item])}
    if wrong is not None:
        bad[f"({wrong!r},)"] = (wrong,)
    return named, bad


def grid(named):
    _, bad = level(0.0, named)
    return named, {**{k: (v,) for k, v in bad.items()},
                   **items(0.1, named)[1]}


FDR_LEVEL = level(1.0, "FDR level")
LAMBDA = level(1.0, "lambda")
SEED = count(0, "seed")
C = count(0, "c: the group-size threshold")
SCALE_ONE = ("scale", {"True": True, "2.0": 2.0, "NaN": NAN, "None": None,
                       "'1'": "1"})
# a WeightConfig's valid arguments and bad values
WEIGHTS = {"lam": 0.5, "c": 1, "dw": "auto"}
WEIGHT_KINDS = {"lam": LAMBDA, "c": C,
                "dw": ("dw", {"5": 5, "None": None, "'bogus'": "bogus",
                              "array(2)": np.array(2)})}


def _dag(m, child):
    return build_dag(m, [(0, 1), (1, child)])


def _simulate(n_reps, seed, p_nonnull, rho, n_workers, family, methods):
    config = SimConfig(family=family, p_nonnull=p_nonnull, rho=rho,
                       n_reps=n_reps, seed=seed, methods=methods)
    return run_simulation(config, n_workers)


# name -> (call, valid keyword arguments, {argument: (named, bad values)})
TABLE = {
    "Combiner": (lambda order: Combiner("orderstat", order), {"order": 1},
                 {"order": count(1, "combiner order")}),
    "intersection_dag_pvalues": (
        lambda item, items: intersection_dag_pvalues(
            DAG, [{0, 1, 2}, {1, 2}, {item}], items, Combiner("simes")),
        {"item": 2, "items": P},
        {"item": ident(0, M, "item"), "items": pvector(fixed=False)}),
    "smooth_all_descendants": (
        lambda p: smooth_all_descendants(DAG, p, Combiner("simes")),
        {"p": P}, {"p": pblock()}),
    "Dag": (lambda m, child: Dag(m, [(0, 1), (1, child)]),
            {"m": M, "child": 2},
            {"m": count(0, "node count"), "child": ident(0, M, "edge")}),
    "build_dag": (_dag, {"m": M, "child": 2},
                  {"m": count(0, "node count"),
                   "child": ident(0, M, "edge")}),
    "DepthIndex": (lambda: DepthIndex(DEPTHS.depth, DEPTHS.levels, 3), {},
                   {}),
    "GroupIndex": (lambda: GroupIndex(*(getattr(GROUPS, f) for f in (
        "mem_node", "mem_group", "group_parent", "group_depth",
        "group_size", "n_d", "depth_sizes"))), {}, {}),
    "ancestors": (lambda node: ancestors(DAG, node), {"node": 1},
                  {"node": ident(0, M, "node")}),
    "descendants": (lambda node: descendants(DAG, node), {"node": 1},
                    {"node": ident(0, M, "node")}),
    "check_heredity": (lambda node: check_heredity(DAG, {0, node}),
                       {"node": 1}, {"node": ident(0, M, "node")}),
    "compute_depths": (lambda: compute_depths(DAG), {}, {}),
    "disjoint_descendant_depths": (
        lambda: disjoint_descendant_depths(DAG, DEPTHS), {}, {}),
    "group_index": (lambda: group_index(DAG, DEPTHS), {}, {}),
    "is_tree": (lambda: is_tree(DAG), {}, {}),
    "FilterSpec": (lambda threshold: FilterSpec("screen", threshold),
                   {"threshold": 0.5},
                   {"threshold": level(1.5, "threshold")}),
    "apply_filter": (lambda node, p: apply_filter(FilterSpec("screen", 0.5),
                                                  DAG, {0, node}, p),
                     {"node": 1, "p": P},
                     {"node": ident(0, M, "node"), "p": pvector()}),
    "is_monotonic": (lambda: is_monotonic(DS, DAG), {}, {}),
    "ProcedureResult": (lambda: ProcedureResult(np.zeros(M, bool), ONES),
                        {}, {}),
    "ReshapingFn": (lambda kind, table: ReshapingFn(kind, table=table),
                    {"kind": "identity", "table": None},
                    {"kind": ("reshaping kind", {"'bogus'": "bogus"}),
                     "table": ("table", {"(0, 1)": (0.0, 1.0)})}),
    "ReshapingFn('identity')": (lambda scale: ReshapingFn("identity", scale),
                                {"scale": 1.0}, {"scale": SCALE_ONE}),
    "ReshapingFn('by')": (lambda scale: ReshapingFn("by", scale),
                          {"scale": 0.5}, {"scale": level(5.0, "scale")}),
    "ReshapingFn('custom')": (
        lambda table, scale: ReshapingFn("custom", scale, table=table),
        {"table": (0.0, 0.5, 1.0), "scale": 1.0},
        {"table": ("table", {"None": None}), "scale": SCALE_ONE}),
    "ReshapingFn.custom": (ReshapingFn.custom, {"values": [0, 1]},
                           {"values": ("table", {"[0, 10**400]":
                                                 [0, 10**400]})}),
    "ReshapingFn.by": (ReshapingFn.by, {"m": M},
                       {"m": count(1, "by reshaping: m")}),
    "RunParams": (
        lambda q, c, policy, filter_name, smoothing: RunParams(
            q=q, c=c, lambda_policy=policy).resolve(
                [("wfbh", filter_name, False)], smoothing),
        {"q": 0.1, "c": 1, "policy": "fixed:0.5", "filter_name": "ds",
         "smoothing": "simes"},
        {"q": FDR_LEVEL,
         "c": (r"\bc\b", {"True": True, "1.5": 1.5, "-1": -1, "'1'": "1"}),
         "policy": choice("fixed:0.5", "lambda policy"),
         "filter_name": choice("ds", "filter"),
         "smoothing": choice("simes", "combiner", none=False)}),
    "RunParams(yekutieli-tree)": (
        lambda yk_divisor: RunParams(yk_divisor=yk_divisor).resolve(
            [("yekutieli-tree", "trivial", False)], None),
        {"yk_divisor": 2.88},
        {"yk_divisor": ("yk-divisor", {
            **level(-1.0, "")[1], "10**400": 10**400})}),
    "StructurePlan": (lambda lam, c, dw: StructurePlan(
        DAG, WeightConfig(lam, c, dw)).workspace, WEIGHTS, WEIGHT_KINDS),
    "bh": (bh, {"pvalues": P, "q": 0.1},
           {"pvalues": pvector(fixed=False), "q": FDR_LEVEL}),
    "by_procedure": (by_procedure, {"pvalues": P, "q": 0.1},
                     {"pvalues": pvector(fixed=False), "q": FDR_LEVEL}),
    "storey_bh": (storey_bh, {"pvalues": P, "q": 0.1, "lam": 0.5},
                  {"pvalues": pvector(fixed=False), "q": FDR_LEVEL,
                   "lam": LAMBDA}),
    "storey_pi0": (storey_pi0, {"pvalues": P, "lam": 0.5},
                   {"pvalues": pvector(fixed=False), "lam": LAMBDA}),
    "fbh": (lambda p, q: fbh(DAG, p, DS, q), {"p": P, "q": 0.1},
            {"p": pvector(), "q": FDR_LEVEL}),
    "wfbh": (lambda p, q: wfbh(DAG, p, ONES, DS, q), {"p": P, "q": 0.1},
             {"p": pvector(), "q": FDR_LEVEL}),
    "weighted_reshaped_fbh": (
        lambda p, q: weighted_reshaped_fbh(DAG, p, ONES, DS, q,
                                           ReshapingFn.by(M)),
        {"p": P, "q": 0.1}, {"p": pvector(), "q": FDR_LEVEL}),
    "brute_force_tstar": (
        lambda p, q: brute_force_tstar(DAG, p, ONES, DS, q),
        {"p": P, "q": 0.1}, {"p": pvector(), "q": FDR_LEVEL}),
    "run_procedure": (lambda p, q: run_procedure(PLAN, p, "wfbh", DS, q),
                      {"p": P, "q": 0.1}, {"p": pvector(), "q": FDR_LEVEL}),
    "yekutieli_tree": (lambda p, level: yekutieli_tree(DAG, p, level),
                       {"p": P, "level": 0.1},
                       {"p": pvector(), "level": level(1.0, "level")}),
    "check_procedure": (
        lambda q: check_procedure("yekutieli-tree", q), {"q": 0.1},
        {"q": ("yekutieli-tree level", {
            **level(3.0, "")[1], "10**400": 10**400, "-10**400": -10**400})}),
    "unity_weights": (unity_weights, {"m": M}, {"m": count(0, r"\bm\b")}),
    "MethodSpec": (lambda: MethodSpec("bh"), {}, {}),
    "SimConfig": (lambda: SimConfig(), {}, {}),
    "SimSummary": (lambda: SimSummary(SimConfig(), (), {}), {}, {}),
    "generate_graph": (generate_graph, {"family": "wide-tree", "seed": 0},
                       {"family": choice("wide-tree", "graph family"),
                        "seed": SEED}),
    "assign_truth": (lambda p_nonnull, seed: assign_truth(DAG, p_nonnull,
                                                          seed),
                     {"p_nonnull": 0.5, "seed": 0},
                     {"p_nonnull": level(1.0, "p_nonnull"), "seed": SEED}),
    "sample_pvalues": (
        lambda node, rho, seed: sample_pvalues(DAG, DEPTHS, {0, node},
                                               "global", rho, seed),
        {"node": 1, "rho": 0.0, "seed": 0},
        {"node": ident(0, M, "node"), "rho": level(1.0, "rho"),
         "seed": SEED}),
    "condition1_check": (
        lambda node, n_mc, seed, lam, c, dw: condition1_check(
            DAG, WeightConfig(lam, c, dw), {0, node}, n_mc, seed),
        {"node": 1, "n_mc": 2, "seed": 0, **WEIGHTS},
        {"node": ident(0, M, "node"), "n_mc": count(1, "n_mc"),
         "seed": SEED, **WEIGHT_KINDS}),
    "superuniformity_check": (
        lambda n_mc, seed, threshold: superuniformity_check(
            DAG, [Combiner("simes")], n_mc, seed, (threshold,)),
        {"n_mc": 2, "seed": 0, "threshold": 0.5},
        {"n_mc": count(1, "n_mc"), "seed": SEED,
         "threshold": level(1.0, "threshold")}),
    "superuniformity_check(lists)": (
        lambda combiners, thresholds: superuniformity_check(
            DAG, combiners, 2, 0, thresholds),
        {"combiners": [Combiner("simes")], "thresholds": (0.5,)},
        {"combiners": items(Combiner("simes"), "combiners", "simes"),
         "thresholds": items(0.5, "thresholds")}),
    "check_superuniformity": (
        lambda combiners: check_superuniformity(2, 0, combiners),
        {"combiners": ("simes",)},
        {"combiners": items("simes", "combiners", Combiner("simes"))}),
    "run_simulation": (
        _simulate,
        {"n_reps": 1, "seed": 0, "p_nonnull": (0.1,), "rho": 0.0,
         "n_workers": 1, "family": "wide-tree",
         "methods": (MethodSpec("bh"),)},
        {"n_reps": count(1, "n_reps"), "seed": SEED,
         "p_nonnull": grid("p_nonnull"), "rho": level(1.0, "rho"),
         "n_workers": count(0, "n_workers"),
         "family": choice("wide-tree", "graph family"),
         "methods": items(MethodSpec("bh"), "methods", "bh")}),
    "WeightConfig": (WeightConfig, WEIGHTS, WEIGHT_KINDS),
    "auto_dw": (lambda lam, c: auto_dw(GROUPS, lam, c), {"lam": 0.5, "c": 1},
                {"lam": LAMBDA, "c": C}),
    "min_possible_weight": (
        lambda d, lam, c: min_possible_weight(d, GROUPS, lam, c),
        {"d": 1, "lam": 0.5, "c": 0},
        {"d": ident(1, 4, "depth"), "lam": LAMBDA, "c": C}),
    "dag_weights": (lambda p, lam, c, dw: dag_weights(
        DAG, DEPTHS, GROUPS, p, WeightConfig(lam, c, dw)),
        {"p": P, **WEIGHTS}, {"p": pvector(), **WEIGHT_KINDS}),
}

PUBLIC = sorted(name for name in focusfdr.__all__
                if callable(getattr(focusfdr, name)))
CASES = [(name, arg, label) for name, (_, _, kinds) in TABLE.items()
         for arg, (_, bad) in kinds.items() for label in bad]


def test_every_public_callable_is_in_the_table():
    assert [name for name in PUBLIC if name not in TABLE] == []


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_arguments_are_accepted(name):
    call, valid, _ = TABLE[name]
    call(**valid)


@pytest.mark.parametrize("name, arg, label", CASES,
                         ids=[f"{n}-{a}-{b}" for n, a, b in CASES])
def test_a_bad_argument_raises_a_value_error_naming_it(name, arg, label):
    call, valid, kinds = TABLE[name]
    named, bad = kinds[arg]
    with pytest.raises(ValueError, match=named):
        call(**{**valid, arg: bad[label]})
