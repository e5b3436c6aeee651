"""Tests for the combining functions, smoothing, and intersection p-values.

Expected values for the named combiners were frozen from scipy 1.15
(combine_pvalues, beta.cdf) and hand enumeration of order statistics.
"""

import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import focusfdr
import focusfdr.combine as combine_module
from focusfdr.checks import random_dag, random_tree
from focusfdr.combine import (AnnotationNotNestedError, Combiner,
                              EmptyAnnotationError, EmptyInputError,
                              UndefinedSegmentError, combine, combine_rows,
                              intersection_dag_pvalues, smooth_rows,
                              smooth_all_descendants, LengthMismatchError)
from focusfdr.dag import build_dag, descendants
from focusfdr.simulate import generate_graph
from focusfdr.special import DomainError

ALL_COMBINERS = [Combiner("fisher"), Combiner("stouffer"), Combiner("simes"),
                 Combiner("orderstat", 1), Combiner("orderstat", 2),
                 Combiner("bonferroni")]


def test_combine_import_yields_the_module():
    # the package no longer re-exports the function under the module's name
    assert isinstance(combine_module, types.ModuleType)
    assert focusfdr.combine is combine_module
    assert combine_module.combine is combine


def test_from_name():
    assert Combiner.from_name("tippett") == Combiner("orderstat", 1)
    assert Combiner.from_name("orderstat:3") == Combiner("orderstat", 3)
    assert Combiner.from_name("Fisher").kind == "fisher"
    assert Combiner.from_name("simes").name == "simes"
    with pytest.raises(ValueError):
        Combiner.from_name("cauchy")


@pytest.mark.parametrize("ps,expected", [
    ([0.5, 0.5], 0.5965735902799727),
    ([0.1, 0.2, 0.7], 0.20131424657163938),
])
def test_fisher_reference(ps, expected):
    assert combine(Combiner("fisher"), ps) == pytest.approx(expected, abs=1e-12)


def test_fisher_zero_convention():
    assert combine(Combiner("fisher"), [0.0, 0.4]) == 0.0


@pytest.mark.parametrize("ps,expected", [
    ([0.1, 0.2, 0.7], 0.17799015519468703),
    ([0.5, 0.5], 0.5),
])
def test_stouffer_reference(ps, expected):
    assert combine(Combiner("stouffer"), ps) == pytest.approx(expected, abs=1e-12)


def test_stouffer_boundary_limits():
    assert combine(Combiner("stouffer"), [0.0, 0.4]) == 0.0
    assert combine(Combiner("stouffer"), [1.0, 0.4]) == 1.0
    with pytest.raises(DomainError):
        combine(Combiner("stouffer"), [0.0, 1.0])


@pytest.mark.parametrize("ps, expected", [
    ([0.0], 0.0), ([1.0], 1.0), ([0.0, 1e-300, 0.9, 0.9999], 0.0),
    ([1.0, 0.5, 1e-12, 0.3], 1.0), ([0.0, 0.0, 0.7], 0.0),
    ([1.0, 1.0, 0.2], 1.0)])
def test_stouffer_limits_are_exact(ps, expected):
    # the z-score is -inf or +inf, and normal_cdf maps it to exactly 0 or 1
    got = combine(Combiner("stouffer"), ps)
    assert got == expected and not np.signbit(got)
    assert combine_rows(Combiner("stouffer"),
                        np.array([ps, ps]))[1] == expected


def test_simes_reference():
    assert combine(Combiner("simes"), [0.02, 0.04]) == pytest.approx(0.04, abs=1e-15)
    assert combine(Combiner("simes"), [0.9, 0.02, 0.04]) == pytest.approx(0.06, abs=1e-15)


def test_bonferroni_reference():
    assert combine(Combiner("bonferroni"), [0.03, 0.5]) == pytest.approx(0.06, abs=1e-15)
    assert combine(Combiner("bonferroni"), [0.8, 0.9]) == 1.0


def test_orderstat_reference():
    # Tippett: 1 - (1 - p_(1))^n; frozen from scipy beta.cdf
    assert combine(Combiner("orderstat", 1), [0.1, 0.2, 0.7]) == pytest.approx(0.271, abs=1e-12)
    assert combine(Combiner("orderstat", 2), [0.1, 0.2, 0.7]) == pytest.approx(0.10400000000000005, abs=1e-12)


def test_orderstat_clamps_to_block_size():
    # order beyond the block falls back to the largest order statistic
    assert combine(Combiner("orderstat", 5), [0.3, 0.6]) == \
        pytest.approx(combine(Combiner("orderstat", 2), [0.3, 0.6]), abs=1e-15)


@pytest.mark.parametrize("comb", ALL_COMBINERS)
def test_singleton_identity(comb):
    assert combine(comb, [0.37]) == pytest.approx(0.37, abs=1e-12)


@pytest.mark.parametrize("comb", ALL_COMBINERS)
def test_output_in_unit_interval(comb):
    rng = np.random.default_rng(0)
    for _ in range(200):
        ps = rng.uniform(size=rng.integers(1, 8))
        val = combine(comb, ps)
        assert 0.0 <= val <= 1.0


def test_empty_and_invalid_input():
    with pytest.raises(EmptyInputError):
        combine(Combiner("fisher"), [])
    with pytest.raises(DomainError):
        combine(Combiner("fisher"), [0.5, 1.2])
    with pytest.raises(DomainError):
        combine(Combiner("fisher"), [np.nan])


@pytest.mark.parametrize("comb", ALL_COMBINERS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_in_each_coordinate(comb, data):
    n = data.draw(st.integers(1, 6))
    ps = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n)))
    idx = data.draw(st.integers(0, n - 1))
    bump = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    if comb.kind == "stouffer" and ((ps == 0).any() and (ps == 1).any()):
        return
    raised = ps.copy()
    raised[idx] = min(1.0, raised[idx] + bump)
    if comb.kind == "stouffer" and ((raised == 0).any() and (raised == 1).any()):
        return
    assert combine(comb, raised) >= combine(comb, ps) - 1e-12


def test_simes_never_exceeds_bonferroni():
    rng = np.random.default_rng(1)
    for _ in range(300):
        ps = rng.uniform(size=rng.integers(1, 9))
        assert combine(Combiner("simes"), ps) <= \
            combine(Combiner("bonferroni"), ps) + 1e-12


def test_combine_rows_matches_scalar():
    rng = np.random.default_rng(2)
    block = rng.uniform(size=(40, 5))
    for comb in ALL_COMBINERS:
        rows = combine_rows(comb, block)
        scalars = np.array([combine(comb, row) for row in block])
        assert np.allclose(rows, scalars, atol=1e-12)


@pytest.mark.parametrize("comb", [Combiner("fisher"), Combiner("stouffer"),
                                  Combiner("simes"), Combiner("orderstat", 1),
                                  Combiner("orderstat", 3),
                                  Combiner("bonferroni")])
def test_superuniform_under_null(comb):
    # n i.i.d. uniforms; empirical CDF at the probe grid must not exceed
    # t by more than 3 binomial standard errors
    rng = np.random.default_rng(7)
    n_rep = 100_000
    for n in (3, 10):
        vals = combine_rows(comb, rng.uniform(size=(n_rep, n)))
        for t in (0.01, 0.05, 0.1, 0.25, 0.5):
            se = np.sqrt(t * (1 - t) / n_rep)
            assert (vals <= t).mean() <= t + 3 * se


def test_smooth_chain_fisher():
    dag = build_dag(2, [(0, 1)])
    sm = smooth_all_descendants(dag, np.array([0.5, 0.5]), Combiner("fisher"))
    assert sm[0] == pytest.approx(0.5965735902799727, abs=1e-12)
    assert sm[1] == 0.5


def test_smooth_chain_simes():
    dag = build_dag(3, [(0, 1), (1, 2)])
    sm = smooth_all_descendants(dag, np.array([0.9, 0.02, 0.04]),
                                Combiner("simes"))
    assert sm[0] == pytest.approx(0.06, abs=1e-15)
    assert sm[1] == pytest.approx(0.04, abs=1e-15)
    assert sm[2] == 0.04


def test_smooth_leaves_unchanged():
    rng = np.random.default_rng(3)
    dag = build_dag(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    p = rng.uniform(size=5)
    sm = smooth_all_descendants(dag, p, Combiner("fisher"))
    for leaf in dag.leaves:
        assert sm[leaf] == p[leaf]


def test_smooth_length_mismatch():
    dag = build_dag(3, [(0, 1), (1, 2)])
    with pytest.raises(LengthMismatchError):
        smooth_all_descendants(dag, np.array([0.1, 0.2]), Combiner("simes"))


def test_smoothed_null_tree_superuniform():
    # full-null tree: smoothed p-values stay superuniform node by node
    rng = np.random.default_rng(11)
    dag = build_dag(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    n_rep = 100_000
    block = rng.uniform(size=(n_rep, 7))
    for comb in (Combiner("simes"), Combiner("bonferroni")):
        sm = smooth_rows(dag, block, comb)
        for t in (0.05, 0.25, 0.5):
            se = np.sqrt(t * (1 - t) / n_rep)
            assert np.all((sm <= t).mean(axis=0) <= t + 3 * se)


def test_intersection_single_node():
    dag = build_dag(1, [])
    out = intersection_dag_pvalues(dag, [{0}], np.array([0.2]),
                                   Combiner("fisher"))
    assert out[0] == pytest.approx(0.2, abs=1e-12)


def test_intersection_parent_child():
    dag = build_dag(2, [(0, 1)])
    out = intersection_dag_pvalues(dag, [{0, 1}, {1}], np.array([0.5, 0.5]),
                                   Combiner("fisher"))
    assert out[0] == pytest.approx(0.5965735902799727, abs=1e-12)
    assert out[1] == pytest.approx(0.5, abs=1e-12)


def test_intersection_errors():
    dag = build_dag(2, [(0, 1)])
    with pytest.raises(AnnotationNotNestedError):
        intersection_dag_pvalues(dag, [{0}, {1}], np.array([0.5, 0.5]),
                                 Combiner("fisher"))
    with pytest.raises(EmptyAnnotationError):
        intersection_dag_pvalues(dag, [{0, 1}, set()], np.array([0.5, 0.5]),
                                 Combiner("fisher"))


SMOOTHERS = [Combiner("fisher"), Combiner("stouffer"), Combiner("simes"),
             Combiner("orderstat", 1), Combiner("orderstat", 3),
             Combiner("bonferroni")]


def smooth_oracle(dag, block, comb):
    """Node-by-node smoothing of each row alone over mask-derived
    descendant sets; returns (smoothed block, None), or (None, v) for the
    first node v whose combination raises in some row."""
    out = block.copy()
    for v in range(dag.m):
        desc = sorted(descendants(dag, v))
        if desc:
            try:
                for i in range(block.shape[0]):
                    out[i, v] = combine_rows(comb,
                                             block[i:i + 1, [v] + desc])[0]
            except DomainError:
                return None, v
    return out, None


def with_exact_bounds(rng, shape, share):
    """Uniform p-values with about ``share`` of them set to exactly 0 or 1."""
    p = rng.uniform(size=shape)
    u = rng.uniform(size=shape)
    p[u < share / 2] = 0.0
    p[u > 1.0 - share / 2] = 1.0
    return p


@given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(),
       max_m=st.sampled_from([4, 12, 30]), r=st.sampled_from([1, 3, 40]),
       share=st.sampled_from([0.0, 0.05, 0.3]),
       comb=st.sampled_from(SMOOTHERS),
       gather=st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_smooth_rows_matches_per_node_oracle(seed, tree, max_m, r, share,
                                             comb, gather):
    rng = np.random.default_rng(seed)
    dag = random_tree(rng, max_m) if tree else random_dag(rng, max_m)
    block = with_exact_bounds(rng, (r, dag.m), share)
    expected, bad = smooth_oracle(dag, block, comb)
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        if bad is None:
            assert np.array_equal(smooth_rows(dag, block, comb), expected)
        else:
            with pytest.raises(UndefinedSegmentError) as info:
                smooth_rows(dag, block, comb)
            assert info.value.node == bad


@pytest.mark.parametrize("gather", [7, 1 << 16])
@pytest.mark.parametrize("family", ["wide-tree", "deep-tree", "bipartite1",
                                    "bipartite2"])
@pytest.mark.parametrize("name", ["fisher", "stouffer", "simes", "tippett",
                                  "bonferroni"])
def test_block_smoothing_matches_each_row_alone(name, family, gather):
    # a block is smoothed so that every row gets the bits it gets alone;
    # over 11+ entries Fisher's and Stouffer's sums depend on the layout
    dag = generate_graph(family, 5)
    block = np.random.default_rng(10).uniform(size=(10, dag.m))
    comb = Combiner.from_name(name)
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        got = smooth_all_descendants(dag, block, comb)
        assert np.array_equal(smooth_rows(dag, block, comb), got)
        for row, p in zip(got, block):
            assert np.array_equal(row, smooth_all_descendants(dag, p, comb))


@pytest.mark.parametrize("name", ["fisher", "stouffer", "simes", "tippett",
                                  "bonferroni"])
def test_smooth_rows_peak_memory_is_bounded(name):
    # Fisher's and Stouffer's terms share one block-sized buffer, released
    # before the block is copied for the output; the combined inner nodes
    # are a compact (r, #inner) array
    dag = generate_graph("deep-tree")
    dag.descendant_closure
    block = np.random.default_rng(3).uniform(size=(2000, dag.m))
    comb = Combiner.from_name(name)
    smooth_rows(dag, block[:2], comb)
    tracemalloc.start()
    try:
        smooth_rows(dag, block, comb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block.nbytes


def test_stouffer_smoothing_names_smallest_undefined_node():
    # nodes 2 and 3 both see the 0 at node 0 and the 1 at node 1; node 3's
    # larger segment is combined first, yet node 2 is the one named
    dag = build_dag(6, [(2, 0), (2, 1), (3, 2), (3, 4)])
    block = np.array([[0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                      [0.0, 1.0, 0.5, 0.5, 0.5, 0.5]])
    with pytest.raises(UndefinedSegmentError) as info:
        smooth_rows(dag, block, Combiner("stouffer"))
    assert info.value.node == 2
    assert isinstance(info.value, DomainError)
    assert "node 2" in str(info.value)
    # valid results are unchanged: a lone 0 or 1 still propagates as a limit
    sm = smooth_rows(dag, block[:, [0, 0, 2, 3, 4, 5]], Combiner("stouffer"))
    assert sm[1, 2] == 0.0 and sm[1, 3] == 0.0


@pytest.mark.parametrize("r", [1, 40])
def test_stouffer_smoothing_limits_are_exact(r):
    # node 2's segment holds a 0 in row 0 and a 1 in row 1, node 3's also
    # the 0.5 of node 4; both combine to exactly 0.0 and 1.0 in every row
    dag = build_dag(6, [(2, 0), (2, 1), (3, 2), (3, 4)])
    base = np.array([[0.0, 0.3, 0.5, 0.5, 0.5, 0.5],
                     [0.7, 1.0, 0.5, 0.5, 0.5, 0.5]])
    block = np.tile(base, (r // 2 + 1, 1))[:r]
    sm = smooth_rows(dag, block, Combiner("stouffer"))
    limit = np.where(block[:, 0] == 0.0, 0.0, 1.0)
    assert np.array_equal(sm[:, 2], limit) and np.array_equal(sm[:, 3], limit)
    assert not np.signbit(sm).any()
    # a 0 and a 1 in one row's segment name the smallest such node
    block[-1, 0], block[-1, 1] = 0.0, 1.0
    with pytest.raises(UndefinedSegmentError) as info:
        smooth_rows(dag, block, Combiner("stouffer"))
    assert info.value.node == 2


def nested_annotations(rng, dag, n_items):
    """Random item sets, each node's the union of its children's and its own."""
    sets = [None] * dag.m
    for v in reversed(dag.topo_order):
        own = rng.integers(0, n_items, size=int(rng.integers(1, 4)))
        sets[v] = set(own.tolist()).union(*(sets[c] for c in dag.children[v]))
    return sets


@given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(),
       share=st.sampled_from([0.0, 0.05, 0.3]),
       comb=st.sampled_from(SMOOTHERS),
       gather=st.sampled_from([1, 7, 1 << 16]))
@settings(max_examples=200, deadline=None)
def test_intersection_matches_per_node_loop(seed, tree, share, comb, gather):
    rng = np.random.default_rng(seed)
    dag = random_tree(rng, 20) if tree else random_dag(rng, 20)
    items = with_exact_bounds(rng, 25, share)
    sets = nested_annotations(rng, dag, items.size)
    expected, bad = np.empty(dag.m), None
    for i, a in enumerate(sets):
        try:
            expected[i] = combine(comb, items[sorted(a)])
        except DomainError:
            bad = i
            break
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        if bad is None:
            out = intersection_dag_pvalues(dag, sets, items, comb)
            assert np.array_equal(out, expected)
        else:
            with pytest.raises(UndefinedSegmentError) as info:
                intersection_dag_pvalues(dag, sets, items, comb)
            assert info.value.node == bad
