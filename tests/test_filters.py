"""Tests for the rejection-set filters and their monotonicity properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfdr.checks import (check_filter_monotonicity,
                             find_outer_counterexample, random_dag,
                             random_near_tree, random_tree)
from focusfdr.dag import (NodeIdOutOfRangeError, ancestors, build_dag,
                          descendants)
from focusfdr.filters import (FilterSpec, apply_filter, filtered_count_curve,
                              is_monotonic, keep_intervals)
from focusfdr.procedures import ReshapingFn, wfbh


def chain3():
    return build_dag(3, [(0, 1), (1, 2)])


def test_from_name():
    assert FilterSpec.from_name("ds").kind == "ds"
    spec = FilterSpec.from_name("screen:0.1")
    assert spec.kind == "screen" and spec.threshold == 0.1
    assert spec.name == "screen:0.1"
    with pytest.raises(ValueError):
        FilterSpec.from_name("inner")
    with pytest.raises(ValueError):
        FilterSpec("screen")
    with pytest.raises(ValueError, match="filter 'screen:abc'.*'abc'"):
        FilterSpec.from_name("screen:abc")


@pytest.mark.parametrize("bad", [1.5, True, np.float64(1.0), -1, 3, "1"])
def test_apply_filter_takes_only_node_ids(bad):
    # int(v) read 1.5 and True as node 1, which the ds filter then dropped
    # for lack of its parent 0, returning frozenset()
    for spec in (FilterSpec("ds"), FilterSpec("trivial")):
        with pytest.raises(NodeIdOutOfRangeError, match=re.escape(
                f"node {bad!r} is not an integer id in [0, 3)")):
            apply_filter(spec, chain3(), {bad})
    assert apply_filter(FilterSpec("ds"), chain3(), {np.int64(0), 1}) == {0, 1}


def test_ds_filter_chain():
    dag = chain3()
    assert apply_filter(FilterSpec("ds"), dag, {0, 2}) == {0}
    assert apply_filter(FilterSpec("ds"), dag, {0, 1, 2}) == {0, 1, 2}


def test_outer_filter_chain():
    dag = chain3()
    assert apply_filter(FilterSpec("outer"), dag, {0, 2}) == {2}


def test_trivial_and_screen():
    dag = chain3()
    assert apply_filter(FilterSpec("trivial"), dag, {0, 2}) == {0, 2}
    got = apply_filter(FilterSpec("screen", 0.1), dag, {0, 1},
                       np.array([0.05, 0.2, 0.9]))
    assert got == {0}


def test_subset_property_random():
    rng = np.random.default_rng(0)
    specs = [FilterSpec("trivial"), FilterSpec("ds"), FilterSpec("outer"),
             FilterSpec("screen", 0.4)]
    for _ in range(100):
        dag = random_dag(rng)
        p = rng.uniform(size=dag.m)
        rej = {i for i in range(dag.m) if rng.random() < 0.5}
        for spec in specs:
            assert apply_filter(spec, dag, rej, p) <= rej


def test_ds_output_ancestor_closed_outer_output_antichain():
    rng = np.random.default_rng(1)
    for _ in range(100):
        dag = random_dag(rng)
        rej = {i for i in range(dag.m) if rng.random() < 0.6}
        kept = apply_filter(FilterSpec("ds"), dag, rej)
        for v in kept:
            assert ancestors(dag, v) <= kept
        outer = apply_filter(FilterSpec("outer"), dag, rej)
        for v in outer:
            assert not (descendants(dag, v) & outer)


def test_is_monotonic_classification():
    chain = chain3()
    diamond = build_dag(4, [(0, 2), (1, 2), (2, 3)])
    assert is_monotonic(FilterSpec("ds"), chain) is True
    assert is_monotonic(FilterSpec("ds"), diamond) is True
    assert is_monotonic(FilterSpec("outer"), chain) is True
    assert is_monotonic(FilterSpec("outer"), diamond) is False
    assert is_monotonic(FilterSpec("trivial"), diamond) is True
    assert is_monotonic(FilterSpec("screen", 0.2), diamond) is True


def test_empirical_monotonicity_suite():
    ok, lines = check_filter_monotonicity(trials=300, seed=0)
    assert ok, lines


def test_outer_counterexample_found_and_pinned():
    dag, r1, r2 = find_outer_counterexample()
    assert r1 is not None and r2 < r1
    spec = FilterSpec("outer")
    assert len(apply_filter(spec, dag, r1)) < len(apply_filter(spec, dag, r2))
    # regression pin: growing {0,1} by the shared child 2 collapses the count
    assert len(apply_filter(spec, dag, {0, 1})) == 2
    assert len(apply_filter(spec, dag, {0, 1, 2})) == 1


def test_count_curve_matches_fresh_evaluation():
    rng = np.random.default_rng(2)
    specs = [FilterSpec("trivial"), FilterSpec("ds"), FilterSpec("outer"),
             FilterSpec("screen", 0.5)]
    for _ in range(60):
        dag = random_dag(rng) if rng.random() < 0.5 else random_tree(rng)
        p = rng.uniform(size=dag.m)
        w = np.exp(rng.normal(size=dag.m))
        wp = w * p
        cands = np.unique(np.concatenate(([0.0], wp)))
        for spec in specs:
            curve = filtered_count_curve(spec, dag, wp, p)(cands)
            fresh = [len(apply_filter(spec, dag,
                                      set(np.flatnonzero(wp <= t)), p))
                     for t in cands]
            assert list(curve) == fresh


GRAPHS = {"dag": random_dag, "tree": random_tree, "near-tree": random_near_tree}


def _random_case(seed, shape, max_m):
    """A random graph with p-values that tie and hit 0 and 1, weights that
    are unity (more ties) or random, and each filter kind; the screening
    threshold sits on one of the p-values."""
    rng = np.random.default_rng(seed)
    dag = GRAPHS[shape](rng, max_m)
    pool = np.concatenate(([0.0, 1.0], rng.uniform(size=3)))
    p = np.where(rng.random(dag.m) < 0.5, rng.choice(pool, size=dag.m),
                 rng.uniform(size=dag.m))
    w = (np.ones(dag.m) if rng.random() < 0.3
         else np.exp(rng.normal(size=dag.m)))
    specs = [FilterSpec("trivial"), FilterSpec("ds"), FilterSpec("outer"),
             FilterSpec("screen", float(rng.choice(p)))]
    return rng, dag, p, w, specs


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(sorted(GRAPHS)),
       max_m=st.sampled_from([2, 12, 40]))
@settings(max_examples=150, deadline=None)
def test_keep_intervals_equal_apply_filter(seed, shape, max_m):
    _, dag, p, w, specs = _random_case(seed, shape, max_m)
    wp = w * p
    for spec in specs:
        enter, leave = keep_intervals(spec, dag, wp, p)
        for t in np.unique(np.concatenate(([0.0], wp))):
            kept = np.flatnonzero((enter <= t) & (t < leave)).tolist()
            base = np.flatnonzero(wp <= t).tolist()
            assert set(kept) == apply_filter(spec, dag, base, p)


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(sorted(GRAPHS)),
       max_m=st.sampled_from([2, 12, 40]))
@settings(max_examples=150, deadline=None)
def test_wfbh_discoveries_equal_apply_filter(seed, shape, max_m):
    rng, dag, p, w, specs = _random_case(seed, shape, max_m)
    q = float(rng.uniform(0.05, 0.5))
    beta = ReshapingFn.by(dag.m) if rng.random() < 0.3 else None
    for spec in specs:
        res = wfbh(dag, p, w, spec, q, reshaping=beta)
        assert res.discovery_set == apply_filter(spec, dag, res.base_set, p)
