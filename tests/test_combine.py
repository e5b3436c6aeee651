"""Tests for the combining functions, smoothing, and intersection p-values.

Expected values for the named combiners were frozen from scipy 1.15
(combine_pvalues, beta.cdf) and hand enumeration of order statistics.
"""

import re
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
                              combine, combine_rows,
                              combine_segments, inner_segments,
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


@pytest.mark.parametrize("kind, order, message", [
    ("bogus", 1, "unknown combiner kind 'bogus'"),
    ("orderstat", 0, "combiner order must be an integer >= 1, got 0"),
    ("orderstat", -2, "combiner order must be an integer >= 1, got -2"),
    ("orderstat", 2.5, "combiner order must be an integer >= 1, got 2.5"),
    ("orderstat", 2.0, "combiner order must be an integer >= 1, got 2.0"),
    ("orderstat", True, "combiner order must be an integer >= 1, got True"),
    ("fisher", "1", "combiner order must be an integer >= 1, got '1'"),
])
def test_combiner_checks_itself_at_construction(kind, order, message):
    # rejected when built, not when first combining
    with pytest.raises(ValueError, match=re.escape(message)):
        Combiner(kind, order)


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
    # a 0 wins over a 1, as for Fisher, Simes, Tippett and Bonferroni
    got = combine(Combiner("stouffer"), [0.0, 1.0])
    assert got == 0.0 and not np.signbit(got)


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
    raised = ps.copy()
    raised[idx] = min(1.0, raised[idx] + bump)
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


@pytest.mark.parametrize("shape", [(), (1, 1, 3), (2, 3, 1), (2, 4), (2, 2)])
def test_smooth_names_the_shape_it_cannot_take(shape):
    # a 0-d or 3-D array is not "3 p-values", and an (R, m +- 1) block is
    # not a block of them: the message names the shape
    dag = build_dag(3, [(0, 1), (1, 2)])
    with pytest.raises(LengthMismatchError, match=re.escape(
            f"expected (3,) or (R, 3) p-values, got shape {shape}")):
        smooth_all_descendants(dag, np.full(shape, 0.5), Combiner("simes"))


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
    descendant sets."""
    out = block.copy()
    for v in range(dag.m):
        desc = sorted(descendants(dag, v))
        if desc:
            for i in range(block.shape[0]):
                out[i, v] = combine_rows(comb, block[i:i + 1, [v] + desc])[0]
    return out


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
    expected = smooth_oracle(dag, block, comb)
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        assert np.array_equal(smooth_rows(dag, block, comb), expected)


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
    # the block is combined one bounded row slab at a time, into a compact
    # (r, #inner) array, and then copied once for the output
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


@pytest.mark.parametrize("name, bound", [("fisher", 0.25),
                                         ("stouffer", 0.4)])
def test_combine_segments_keeps_no_block_sized_buffer(name, bound):
    # only the (r, #inner) output (10% of this block) and one slab's
    # temporaries are live: a slab is 6% of the block, and Stouffer's
    # terms hold four slab-sized arrays at once (the clipped slab and the
    # normal quantile's three buffers)
    dag = generate_graph("deep-tree")
    indptr, indices = dag.descendant_closure
    inner = np.flatnonzero(np.diff(indptr) > 1)
    block = np.random.default_rng(3).uniform(size=(2000, dag.m))
    comb = Combiner.from_name(name)
    combine_segments(comb, block[:2], inner, indptr, indices)
    tracemalloc.start()
    try:
        combine_segments(comb, block, inner, indptr, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * block.nbytes


@pytest.mark.parametrize("comb", ALL_COMBINERS, ids=lambda c: c.name)
@pytest.mark.parametrize("r", [2, 3, 4, 11])
def test_block_smoothing_rows_straddling_slabs(comb, r):
    # slabs of s = 3 rows; r just under, at and over one slab, and 3s + 2
    # with a partial last slab
    dag = generate_graph("bipartite2", 4)
    s = 3
    block = np.random.default_rng(r).uniform(size=(r, dag.m))
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", s * dag.m):
        got = smooth_rows(dag, block, comb)
        for row, p in zip(got, block):
            assert np.array_equal(row, smooth_rows(dag, p[None, :], comb)[0])


@pytest.mark.parametrize("gather", [6, 12])
def test_stouffer_names_smallest_undefined_node_across_slabs(gather):
    # slabs of one or two rows: node 3's segment holds a 0 and a 1 from
    # row 1 on, node 2's only in row 2, a later slab; each such segment
    # combines to exactly +0.0, in whichever slab it falls
    dag = build_dag(6, [(2, 0), (2, 1), (3, 2), (3, 4)])
    block = np.array([[0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                      [1.0, 0.5, 0.5, 0.5, 0.0, 0.5],
                      [0.0, 1.0, 0.5, 0.5, 0.5, 0.5]])
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        sm = smooth_rows(dag, block, Combiner("stouffer"))
    assert np.array_equal(sm[1:, 3], [0.0, 0.0]) and sm[2, 2] == 0.0
    assert sm[1, 2] == 1.0 and not np.signbit(sm).any()
    assert np.array_equal(sm, smooth_oracle(dag, block, Combiner("stouffer")))


def test_stouffer_smoothing_names_smallest_undefined_node():
    # nodes 2 and 3 both see the 0 at node 0 and the 1 at node 1: both
    # combine to exactly 0.0, and row 0 and the leaves are untouched
    dag = build_dag(6, [(2, 0), (2, 1), (3, 2), (3, 4)])
    block = np.array([[0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                      [0.0, 1.0, 0.5, 0.5, 0.5, 0.5]])
    sm = smooth_rows(dag, block, Combiner("stouffer"))
    assert sm[1, 2] == 0.0 and sm[1, 3] == 0.0
    assert not np.signbit(sm).any()
    assert np.array_equal(sm[1, [0, 1, 4, 5]], block[1, [0, 1, 4, 5]])
    assert np.array_equal(sm[0], smooth_rows(dag, block[:1],
                                             Combiner("stouffer"))[0])
    # a lone 0 or 1 still propagates as a limit
    sm = smooth_rows(dag, block[:, [0, 0, 2, 3, 4, 5]], Combiner("stouffer"))
    assert sm[1, 2] == 0.0 and sm[1, 3] == 0.0
    sm = smooth_rows(dag, block[:, [1, 1, 2, 3, 4, 5]], Combiner("stouffer"))
    assert sm[1, 2] == 1.0 and sm[1, 3] == 1.0


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
    # a 0 and a 1 in one row's segment combine to exactly 0.0, and the
    # other rows keep their limits
    block[-1, 0], block[-1, 1] = 0.0, 1.0
    sm = smooth_rows(dag, block, Combiner("stouffer"))
    limit[-1] = 0.0
    assert np.array_equal(sm[:, 2], limit) and np.array_equal(sm[:, 3], limit)
    assert not np.signbit(sm).any()


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
    expected = np.array([combine(comb, items[sorted(a)]) for a in sets])
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        out = intersection_dag_pvalues(dag, sets, items, comb)
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("bad", [1.9, True, np.True_, 1.0, "1"], ids=repr)
def test_intersection_names_an_item_id_that_is_not_an_integer(bad):
    # not read as item 1
    dag = build_dag(2, [(0, 1)])
    items = np.array([0.5, 0.01, 0.5])
    message = f"node 1 references unknown item {re.escape(repr(bad))}$"
    with pytest.raises(DomainError, match=message):
        intersection_dag_pvalues(dag, [{0, 1, 2}, {bad}], items,
                                 Combiner("simes"))
    got = intersection_dag_pvalues(dag, [{0, 1, 2}, {np.int64(1)}], items,
                                   Combiner("simes"))
    assert got[1] == 0.01


RULE_COMBINERS = ["fisher", "stouffer", "simes", "tippett", "bonferroni"]


@pytest.mark.parametrize("name", RULE_COMBINERS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_a_segment_holding_a_zero_combines_to_zero(name, data):
    # whatever else it holds, a 1 included, a segment with an exact 0
    # combines to +0.0: through combine, combine_segments and smooth_rows
    # on a chain whose root segment is the whole row (rows holding the 0
    # alternate with rows holding 1s in its place, so that small slabs
    # split them) and intersection mode.  Stouffer on a segment with a 1
    # and no 0 still gives exactly 1.0
    comb = Combiner.from_name(name)
    n = data.draw(st.integers(1, 12))
    entry = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
    seg = np.array(data.draw(st.lists(entry, min_size=n, max_size=n))) + 0.0
    seg[data.draw(st.integers(0, n - 1))] = 0.0
    zeros = np.zeros(3)
    got = combine(comb, seg)
    assert got == 0.0 and not np.signbit(got)
    block = np.array([seg, np.where(seg == 0.0, 1.0, seg)] * 3)
    dag = build_dag(n, [(v, v + 1) for v in range(n - 1)])
    indptr, indices = dag.descendant_closure
    for gather in (1, 7, 1 << 16):
        with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
            got = combine_segments(comb, block, np.array([0]), indptr,
                                   indices)[:, 0]
            sm = smooth_rows(dag, block, comb)[:, 0]
        for out in (got, sm):
            assert np.array_equal(out[::2], zeros)
            assert not np.signbit(out[::2]).any()
            if name == "stouffer":
                assert np.array_equal(out[1::2], zeros + 1.0)
    got = intersection_dag_pvalues(build_dag(1, []), [set(range(n))], seg,
                                   comb)
    assert got[0] == 0.0 and not np.signbit(got[0])


def test_combine_names_the_shape_of_non_1d_input():
    # a block or a bare number is not an empty sequence
    for bad, shape in (([[0.1, 0.2]], "(1, 2)"), (0.3, "()")):
        with pytest.raises(ValueError, match=re.escape(shape)) as info:
            combine(Combiner("simes"), bad)
        assert not isinstance(info.value, EmptyInputError)
    with pytest.raises(EmptyInputError):
        combine(Combiner("simes"), [])


def signed_block(rng, shape, share):
    """Uniform p-values with about ``share`` of them set to 0.0, -0.0 or
    1.0, a third each."""
    p = rng.uniform(size=shape)
    u = rng.uniform(size=shape)
    p[u < share / 3] = 0.0
    p[(u >= share / 3) & (u < 2 * share / 3)] = -0.0
    p[(u >= 2 * share / 3) & (u < share)] = 1.0
    return p


def segment_oracle(comb, block, nodes, indptr, indices):
    """``combine_rows`` on each row and node's segment alone."""
    out = np.empty((block.shape[0], nodes.size))
    for j, v in enumerate(nodes.tolist()):
        seg = indices[indptr[v]:indptr[v + 1]]
        for i in range(block.shape[0]):
            out[i, j] = combine_rows(comb, block[i:i + 1, seg])[0]
    return out


def item_segments(rng, dag, n_items):
    """The intersection-mode CSR: node i's sorted annotation items."""
    rows = [sorted(a) for a in nested_annotations(rng, dag, n_items)]
    indptr = np.zeros(dag.m + 1, dtype=np.intp)
    np.cumsum([len(a) for a in rows], out=indptr[1:])
    return indptr, np.concatenate(rows).astype(np.intp)


@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["tree", "dag", "items"]),
       r=st.sampled_from([1, 2, 5]), share=st.sampled_from([0.0, 0.2, 0.6]),
       comb=st.sampled_from(ALL_COMBINERS + [Combiner("orderstat", 5)]),
       gather=st.sampled_from([1, 3, 13, 40, 1 << 16]),
       pick=st.sampled_from(["all", "inner", "shuffled"]))
@settings(max_examples=300, deadline=None)
def test_combine_segments_matches_combine_rows(seed, shape, r, share, comb,
                                               gather, pick):
    # every combiner against the per-node oracle, bit for bit: blocks
    # holding 0.0, -0.0 and 1.0; slabs and minimum runs cut mid-closure by
    # a small _GATHER_ENTRIES; order statistics above the segment size;
    # descendant closures and intersection item segments; the nodes in CSR
    # order, or shuffled with repeats.  Signs match too, but a zero
    # Bonferroni value is pinned to +0.0 (np.min picks either zero)
    rng = np.random.default_rng(seed)
    dag = random_tree(rng, 25) if shape == "tree" else random_dag(rng, 25)
    if shape == "items":
        indptr, indices = item_segments(rng, dag, 30)
        width = 30
    else:
        indptr, indices = dag.descendant_closure
        width = dag.m
    block = signed_block(rng, (r, width), share)
    nodes = np.arange(dag.m)
    if pick == "inner":
        nodes = np.flatnonzero(np.diff(indptr) > 1)
    elif pick == "shuffled":
        nodes = rng.choice(dag.m, size=int(rng.integers(1, 2 * dag.m)))
    expected = segment_oracle(comb, block, nodes, indptr, indices)
    with mock.patch.object(combine_module, "_GATHER_ENTRIES", gather):
        got = combine_segments(comb, block, nodes, indptr, indices)
    assert np.array_equal(got, expected)
    if comb.kind == "bonferroni":
        assert not np.signbit(got).any()
    else:
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_combine_segments_rejects_an_empty_segment():
    indptr, indices = np.array([0, 2, 2, 3]), np.array([0, 1, 2])
    for comb in ALL_COMBINERS:
        with pytest.raises(EmptyInputError):
            combine_segments(comb, np.full((1, 3), 0.5), np.arange(3),
                             indptr, indices)


@pytest.mark.parametrize("name, bound", [("bonferroni", 0.2),
                                         ("tippett", 0.2)])
def test_segment_minima_keep_no_block_sized_buffer(name, bound):
    # the (r, #inner) output (10% of this block), one slab's gathered run
    # of at most _GATHER_ENTRIES entries (6%) and the slab's calibration
    dag = generate_graph("deep-tree")
    indptr, indices = dag.descendant_closure
    inner = np.flatnonzero(np.diff(indptr) > 1)
    block = np.random.default_rng(3).uniform(size=(2000, dag.m))
    comb = Combiner.from_name(name)
    combine_segments(comb, block[:2], inner, indptr, indices)
    tracemalloc.start()
    try:
        combine_segments(comb, block, inner, indptr, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * block.nbytes


@pytest.mark.parametrize("comb", ALL_COMBINERS, ids=lambda c: c.name)
def test_single_row_smoothing_gathers_a_bounded_span(comb):
    # a path of 300 nodes above a fan of 3,000 leaves: every path node has
    # every leaf below it, so the closure holds ~945k entries (7.6 MB),
    # while one row is gathered at most _GATHER_ENTRIES entries at a time
    spine, fan = 300, 3000
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(spine - 1, spine + k) for k in range(fan)]
    dag = build_dag(spine + fan, edges)
    indptr, indices = dag.descendant_closure
    p = np.random.default_rng(4).uniform(size=dag.m)
    smooth_rows(dag, p[None, :], comb)
    tracemalloc.start()
    try:
        got = smooth_rows(dag, p[None, :], comb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * indices.nbytes
    top = combine_rows(comb, p[None, indices[indptr[0]:indptr[1]]])
    assert got[0, 0] == top[0]


@pytest.mark.parametrize("comb", ALL_COMBINERS, ids=lambda c: c.name)
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("shape", ["dag", "chain"])
def test_block_kernels_leave_the_block_untouched(comb, layout, shape):
    # the order statistics and Simes sort and scale their gathered rows in
    # place, Fisher's series runs in place: only the kernels' own copies
    # may change, never the caller's block, whatever its layout.  A chain's
    # segments are contiguous column ranges, one node per size group
    rng = np.random.default_rng(17)
    dag = (random_dag(rng, 40) if shape == "dag"
           else build_dag(30, [(v, v + 1) for v in range(29)]))
    wide = rng.uniform(size=(9, 2 * dag.m))
    u = rng.uniform(size=wide.shape)
    wide[u < 0.05] = 0.0
    wide[(u > 0.05) & (u < 0.1)] = 1e-300
    wide[u > 0.95] = 1.0 - 1e-16
    block = {"C": wide[:, :dag.m].copy(),
             "F": np.asfortranarray(wide[:, :dag.m]),
             "strided": wide[:, ::2]}[layout]
    before, wide_before = block.copy(), wide.copy()
    inner, indptr, indices = inner_segments(dag)
    combine_segments(comb, block, inner, indptr, indices)
    smooth_rows(dag, block, comb)
    assert block.tobytes() == before.tobytes()
    assert wide.tobytes() == wide_before.tobytes()
