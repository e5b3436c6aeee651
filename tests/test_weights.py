"""Tests for Storey estimation and the group-adaptive DAG weights."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfdr.checks import random_dag, random_near_tree, random_tree
from focusfdr.combine import EmptyInputError
from focusfdr.dag import build_dag, compute_depths, group_index
from focusfdr.filters import FilterSpec
from focusfdr.procedures import StructurePlan, run_procedure
from focusfdr.simulate import condition1_check, generate_graph
from focusfdr.weights import (LambdaOutOfRangeError, NoEligibleGroupError,
                              WeightConfig, WeightWorkspace, auto_dw,
                              check_dw_depths, dag_weights,
                              min_possible_weight, parse_lambda_policy,
                              resolve_dw, storey_pi0)


def _indexes(dag):
    depths = compute_depths(dag)
    return depths, group_index(dag, depths)


def test_storey_pi0_examples():
    assert storey_pi0([0.9, 0.8, 0.1, 0.2], 0.5) == pytest.approx(1.5)
    p10 = [0.9, 0.8, 0.7, 0.6, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    assert storey_pi0(p10, 0.5) == pytest.approx(1.0)
    assert storey_pi0(np.zeros(8), 0.5) == pytest.approx(1 / (0.5 * 8))


def test_storey_pi0_errors():
    with pytest.raises(EmptyInputError):
        storey_pi0([], 0.5)
    with pytest.raises(LambdaOutOfRangeError):
        storey_pi0([0.5], 1.0)
    with pytest.raises(LambdaOutOfRangeError):
        storey_pi0([0.5], 0.0)


def test_group_storey_examples():
    assert storey_pi0(np.full(10, 0.9), 0.5) == pytest.approx(2.2)
    assert storey_pi0(np.full(10, 0.1), 0.5) == pytest.approx(0.2)
    assert storey_pi0([0.9], 0.5) == pytest.approx(4.0)


def test_min_possible_weight_families():
    dag = generate_graph("bipartite1", 3)
    depths, groups = _indexes(dag)
    assert min_possible_weight(2, groups, 0.5) == pytest.approx(2 * 200 / 350)

    dag = generate_graph("wide-tree")
    depths, groups = _indexes(dag)
    assert min_possible_weight(2, groups, 0.5) == pytest.approx(0.2)

    dag = generate_graph("deep-tree")
    depths, groups = _indexes(dag)
    assert min_possible_weight(3, groups, 0.5) == pytest.approx(0.2)


def test_min_possible_weight_requires_eligible_group():
    dag = build_dag(3, [(0, 1), (1, 2)])
    depths, groups = _indexes(dag)
    with pytest.raises(NoEligibleGroupError):
        min_possible_weight(2, groups, 0.5, c=1)


def test_auto_dw_reproduces_family_choices():
    expected = {"wide-tree": {1, 2}, "bipartite1": {1},
                "deep-tree": {1, 2, 3}, "bipartite2": {1, 2}}
    for family, depths_set in expected.items():
        dag = generate_graph(family, 5)
        _, groups = _indexes(dag)
        assert auto_dw(groups, 0.5, 1) == depths_set


def test_auto_dw_includes_small_group_depths():
    # every group at or below the size threshold: ratio weights, still gated
    dag = build_dag(3, [(0, 1), (1, 2)])
    _, groups = _indexes(dag)
    assert auto_dw(groups, 0.5, 1) == {1, 2, 3}


def per_depth_rule(dag, depths, lam, c):
    """The auto-dw rule as a literal loop over depths, from the children
    lists: per depth, (gated, minimum possible weight or None when no group
    there is larger than c)."""
    depth = depths.depth.tolist()
    out = {}
    for d in range(1, depths.max_depth + 1):
        if d == 1:
            groups = [[v for v in range(dag.m) if depth[v] == 1]]
        else:
            groups = [[k for k in dag.children[a] if depth[k] == d]
                      for a in range(dag.m)]
            groups = [g for g in groups if g]
        size = sum(1 for v in range(dag.m) if depth[v] == d)
        if any(len(g) > c for g in groups):
            floor = len(groups) / ((1.0 - lam) * size)
            out[d] = (floor <= 1.0, floor)
        else:
            out[d] = (True, None)
    return out


RULE_GRAPHS = {"dag": random_dag, "tree": random_tree,
               "near-tree": random_near_tree}


@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(sorted(RULE_GRAPHS)),
       max_m=st.sampled_from([2, 14, 40]), c=st.sampled_from([0, 1, 2, 5]),
       lam=st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
@settings(max_examples=300, deadline=None)
def test_auto_dw_and_min_possible_weight_match_per_depth_loop(seed, shape,
                                                              max_m, c, lam):
    dag = RULE_GRAPHS[shape](np.random.default_rng(seed), max_m)
    depths, groups = _indexes(dag)
    rule = per_depth_rule(dag, depths, lam, c)
    got = auto_dw(groups, lam, c)
    assert got == {d for d, (gated, _) in rule.items() if gated}
    assert all(type(d) is int for d in got)
    for d, (_, floor) in rule.items():
        if floor is None:
            with pytest.raises(NoEligibleGroupError):
                min_possible_weight(d, groups, lam, c)
        else:
            got_floor = min_possible_weight(d, groups, lam, c)
            assert type(got_floor) is float and got_floor == floor
    for d in (0, depths.max_depth + 1):
        with pytest.raises(NoEligibleGroupError):
            min_possible_weight(d, groups, lam, c)


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=repr)
def test_min_possible_weight_names_a_depth_that_is_not_an_integer(bad):
    # the string "1" is not read as the valid depth 1
    _, groups = _indexes(build_dag(3, [(0, 1), (1, 2)]))
    message = f"no group at depth {re.escape(repr(bad))} larger"
    with pytest.raises(NoEligibleGroupError, match=message):
        min_possible_weight(bad, groups, 0.5, c=0)
    assert min_possible_weight(1, groups, 0.5, c=0) > 0


@pytest.mark.parametrize("text", ["1.5", "1", "0", "-0.2", "7", "nan"])
def test_parse_lambda_policy_rejects_fixed_outside_unit_interval(text):
    with pytest.raises(LambdaOutOfRangeError,
                       match=r"lambda must be in \(0, 1\)"):
        parse_lambda_policy(f"fixed:{text}", 0.05)


@pytest.mark.parametrize("q", [2.0, 1.0, 0.0])
def test_parse_lambda_policy_checks_lambda_taken_from_q(q):
    # yekutieli-tree accepts q >= 1, so lambda = q is checked on its own
    with pytest.raises(LambdaOutOfRangeError,
                       match=rf"lambda must be in \(0, 1\), got {q}"):
        parse_lambda_policy("q", q)


def test_check_dw_depths_rejects_unknown_mode():
    check_dw_depths("auto", 2, "graph g")
    check_dw_depths("none", 2, "graph g")
    with pytest.raises(ValueError, match="unknown dw mode 'bogus'"):
        check_dw_depths("bogus", 2, "graph g")


@pytest.mark.parametrize("depth", [1.5, True, False, np.bool_(True), "1",
                                   float("nan"), float("inf")])
def test_check_dw_depths_rejects_non_integer_depths(depth):
    # a fractional depth used to be truncated by resolve_dw, and a bool
    # read as 0 or 1
    with pytest.raises(ValueError, match=rf"dw depth {re.escape(repr(depth))}"
                                         r" is not an integer: graph g has "
                                         r"depths 1 to 2"):
        check_dw_depths([depth], 2, "graph g")


def test_check_dw_depths_accepts_integral_numbers():
    check_dw_depths([1, np.int64(2), 2.0], 2, "graph g")
    check_dw_depths("auto", 2, "graph g")
    with pytest.raises(ValueError, match=r"dw depth 3.0 is outside \[1, 2\]"):
        check_dw_depths([3.0], 2, "graph g")


@pytest.mark.parametrize("dw, message", [
    ({1.5}, r"dw depth 1.5 is not an integer: the graph has depths 1 to 2"),
    ({True}, r"dw depth True is not an integer: the graph has depths 1 to 2"),
    ({0}, r"dw depth 0 is outside \[1, 2\]: the graph has max depth 2"),
    ({9}, r"dw depth 9 is outside \[1, 2\]: the graph has max depth 2"),
], ids=["fraction", "bool", "zero", "above-max"])
@pytest.mark.parametrize("entry", ["dag_weights", "run_procedure",
                                   "condition1_check"])
def test_library_rejects_bad_dw_depths(dw, message, entry):
    # unchecked, int() would read 1.5 and True as depth 1, and 0 or 9
    # would give every node weight 1
    dag = generate_graph("wide-tree")
    depths, groups = _indexes(dag)
    config = WeightConfig(dw=dw)
    p = np.full(dag.m, 0.3)
    with pytest.raises(ValueError, match=message):
        if entry == "dag_weights":
            dag_weights(dag, depths, groups, p, config)
        elif entry == "run_procedure":
            run_procedure(StructurePlan(dag, config), p, "wfbh",
                          FilterSpec("ds"), 0.1)
        else:
            condition1_check(dag, config, frozenset(), n_mc=10)


def test_resolve_dw_modes():
    dag = generate_graph("wide-tree")
    _, groups = _indexes(dag)
    assert resolve_dw(WeightConfig(dw="none"), groups) == frozenset()
    assert resolve_dw(WeightConfig(dw=(2,)), groups) == {2}
    with pytest.raises(ValueError):
        resolve_dw(WeightConfig(dw="sometimes"), groups)


def test_wide_tree_leaf_weights_match_group_storey():
    # equal-size non-overlapping groups: weight == within-group estimate
    dag = generate_graph("wide-tree")
    depths, groups = _indexes(dag)
    rng = np.random.default_rng(0)
    p = rng.uniform(size=dag.m)
    wv = dag_weights(dag, depths, groups, p, WeightConfig(lam=0.5, c=0))
    for g in np.flatnonzero(groups.group_depth == 2):
        # K = (10/500)*50 = 1, so the Storey factor is the whole weight
        members = groups.mem_node[groups.mem_group == g]
        expected = storey_pi0(p[members], 0.5)
        for v in members:
            assert wv[v] == pytest.approx(expected)
    assert groups.group_parent[0] == -1
    root_expected = storey_pi0(p[groups.mem_node[groups.mem_group == 0]], 0.5)
    for r in dag.roots:
        assert wv[r] == pytest.approx(root_expected)


def test_wide_tree_large_c_forces_ratio_weights():
    dag = generate_graph("wide-tree")
    depths, groups = _indexes(dag)
    p = np.random.default_rng(1).uniform(size=dag.m)
    wv = dag_weights(dag, depths, groups, p, WeightConfig(lam=0.5, c=50, dw=(1,)))
    # single root group of 50 <= c: K = (50/50)*1 = 1 for every root
    assert np.allclose(wv[:50], 1.0)


def test_dw_empty_gives_unity():
    dag = generate_graph("wide-tree")
    depths, groups = _indexes(dag)
    p = np.random.default_rng(2).uniform(size=dag.m)
    wv = dag_weights(dag, depths, groups, p, WeightConfig(dw="none"))
    assert np.all(wv == 1.0)


def test_unity_outside_gated_depths():
    dag = generate_graph("deep-tree")
    depths, groups = _indexes(dag)
    p = np.random.default_rng(3).uniform(size=dag.m)
    wv = dag_weights(dag, depths, groups, p, WeightConfig(dw=(2,)))
    gated = depths.depth == 2
    assert np.all(wv[~gated] == 1.0)
    assert np.any(wv[gated] != 1.0)


def test_two_parent_harmonic_average():
    # node 2 sits in both sibling groups; hand derivation:
    #   group {2,3}: no exceedances -> pi=1,   K=4/3, w=4/3
    #   group {2,4}: one exceedance -> pi=2,   K=4/3, w=8/3
    #   node 2: 1/w = (3/4 + 3/8)/2 = 9/16 -> w = 16/9
    dag = build_dag(5, [(0, 2), (0, 3), (1, 2), (1, 4)])
    depths, groups = _indexes(dag)
    p = np.array([0.5, 0.5, 0.3, 0.2, 0.6])
    wv = dag_weights(dag, depths, groups, p,
                     WeightConfig(lam=0.5, c=1, dw=(1, 2)))
    assert wv[2] == pytest.approx(16 / 9)
    assert wv[3] == pytest.approx(4 / 3)
    assert wv[4] == pytest.approx(8 / 3)
    assert wv[0] == pytest.approx(1.0)
    assert wv[1] == pytest.approx(1.0)


def test_weights_positive_and_bounded_below():
    # with every containing group above the threshold, each gated weight is
    # at least n_d / ((1 - lam) |H_d|)
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(6, 26))
        dag = build_dag(m, [(int(rng.integers(0, j)), j) for j in range(1, m)])
        depths, groups = _indexes(dag)
        p = rng.uniform(size=m)
        cfg = WeightConfig(lam=0.5, c=0, dw="auto")
        wv = dag_weights(dag, depths, groups, p, cfg)
        assert np.all(wv > 0)
        for d in resolve_dw(cfg, groups):
            lower = groups.n_d[d] / (0.5 * groups.depth_sizes[d])
            for v in depths.levels[d]:
                assert wv[v] >= lower - 1e-12


def test_weights_monotone_in_each_pvalue():
    rng = np.random.default_rng(5)
    for _ in range(60):
        m = int(rng.integers(4, 16))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if rng.random() < 0.3]
        dag = build_dag(m, edges)
        depths, groups = _indexes(dag)
        p = rng.uniform(size=m)
        cfg = WeightConfig(lam=0.5, c=1, dw="auto")
        base = dag_weights(dag, depths, groups, p, cfg)
        i = int(rng.integers(m))
        raised = p.copy()
        raised[i] = min(1.0, raised[i] + rng.uniform())
        bumped = dag_weights(dag, depths, groups, raised, cfg)
        assert np.all(bumped >= base - 1e-12)


def test_leave_self_zero_matches_explicit_substitution():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(4, 14))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if rng.random() < 0.35]
        dag = build_dag(m, edges)
        depths, groups = _indexes(dag)
        cfg = WeightConfig(lam=0.5, c=1, dw="auto")
        dw = resolve_dw(cfg, groups)
        ws = WeightWorkspace(groups, depths, dw, cfg.c)
        p = rng.uniform(size=m)
        fast = ws.leave_self_zero_weights(p, cfg.lam)
        for i in range(m):
            p0 = p.copy()
            p0[i] = 0.0
            ref = dag_weights(dag, depths, groups, p0, cfg)[i]
            assert fast[i] == pytest.approx(ref, abs=1e-12)


def test_workspace_matches_dag_weights():
    dag = generate_graph("bipartite2", 9)
    depths, groups = _indexes(dag)
    cfg = WeightConfig(lam=0.3, c=2, dw="auto")
    dw = resolve_dw(cfg, groups)
    ws = WeightWorkspace(groups, depths, dw, cfg.c)
    p = np.random.default_rng(7).uniform(size=dag.m)
    assert np.allclose(ws.node_weights(p, cfg.lam),
                       dag_weights(dag, depths, groups, p, cfg))


def per_group_loop_weights(groups, depths, p, lam, c, dw):
    """Weights from a loop over the gated groups in index order; each node
    sums its inverse group weights in that order, as the workspace must."""
    inverses = [[] for _ in range(len(depths.depth))]
    for g, d in enumerate(groups.group_depth.tolist()):
        if d not in dw:
            continue
        members = groups.mem_node[groups.mem_group == g].tolist()
        size = len(members)
        ratio = size / groups.depth_sizes[d] * groups.n_d[d]
        w = ratio
        if size > c:
            exceed = sum(1 for v in members if p[v] > lam)
            w = (1.0 + exceed) / ((1.0 - lam) * size) * ratio
        for v in members:
            inverses[v].append(1.0 / w)
    weights = []
    for terms in inverses:
        total = 0.0
        for t in terms:
            total += t
        weights.append(len(terms) / total if terms else 1.0)
    return np.array(weights)


@given(seed=st.integers(0, 2**32 - 1), near_tree=st.booleans(),
       c=st.sampled_from([0, 1, 3]), lam=st.sampled_from([0.2, 0.5]))
@settings(max_examples=100, deadline=None)
def test_workspace_matches_per_group_loop_exactly(seed, near_tree, c, lam):
    rng = np.random.default_rng(seed)
    dag = random_near_tree(rng, 30) if near_tree else random_dag(rng, 30)
    depths, groups = _indexes(dag)
    p = rng.uniform(size=dag.m)
    dw = {d for d in depths.levels if rng.random() < 0.7}
    ws = WeightWorkspace(groups, depths, dw, c)
    assert np.array_equal(ws.node_weights(p, lam),
                          per_group_loop_weights(groups, depths, p, lam, c, dw))
