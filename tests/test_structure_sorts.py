"""The sorts of the structure path against the formulations they replaced.

``Dag.__init__``, ``repeats``, ``group_index`` and
``disjoint_descendant_depths`` order their keys by the cheapest sort that
gives the order a stable sort would: numpy's default argsort on distinct
keys, and a stable (radix) argsort of depths narrowed to 8 or 16 bits.
The old formulations are kept here as oracles (stable argsorts of wide
keys, a 3-key ``lexsort`` and ``np.unique``) and every array must equal
theirs exactly, dtype included.  A guard wraps ``np.argsort`` and
``np.lexsort`` while the structure is built, and fails on a ``lexsort``
and on a stable argsort of a key wider than 16 bits.  The one such sort
allowed, ``repeats``' re-sort of equal keys, runs only on faulty edges,
which the guard's graphs do not hold."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focusfdr.checks import random_dag, random_tree
from focusfdr.dag import (_narrow, build_dag, compute_depths,
                          disjoint_descendant_depths, group_index, repeats)
from focusfdr.io import structure_summary
from focusfdr.procedures import StructurePlan
from focusfdr.simulate import generate_graph
from focusfdr.weights import WeightConfig


@pytest.fixture
def sorts(monkeypatch):
    """Every np.argsort and np.lexsort call while the test runs, as
    (function, kind, key itemsize, caller's name)."""
    calls = []
    argsort, lexsort = np.argsort, np.lexsort

    def caller():
        return sys._getframe(2).f_code.co_name

    def spy_argsort(a, *args, **kwargs):
        calls.append(("argsort", kwargs.get("kind"),
                      np.asarray(a).dtype.itemsize, caller()))
        return argsort(a, *args, **kwargs)

    def spy_lexsort(keys, *args, **kwargs):
        calls.append(("lexsort", None, None, caller()))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy_argsort)
    monkeypatch.setattr(np, "lexsort", spy_lexsort)
    return calls


# ------------------------------------------------------------------ oracles
def old_repeats(keys):
    order = np.argsort(keys, kind="stable")
    out = np.zeros(keys.size, dtype=bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out, order


def old_layout(dag):
    """The Dag's edge and node order as two stable argsorts of wide keys
    built them: the child CSR's edges by (child depth, child), ties by
    parent, and the nodes by depth."""
    m, ptr, depth = dag.m, dag.child_indptr, dag.depth
    parent = np.repeat(np.arange(m), np.diff(ptr))
    child = dag.child_indices
    by_depth = np.argsort(depth[child] * m + child, kind="stable")
    topo = np.argsort(depth, kind="stable")
    node_ptr = np.cumsum(np.bincount(depth, minlength=1))
    before = np.concatenate(([0], np.cumsum(dag.in_degree[topo])))
    start = np.empty(m, dtype=np.intp)
    start[topo] = before[:-1]
    return {"edge_parent": parent[by_depth], "edge_child": child[by_depth],
            "topo_order": topo, "node_ptr": node_ptr,
            "level_ptr": before[node_ptr], "parent_start": start}


def old_group_index(dag, depths):
    parent = np.concatenate([np.full(dag.roots.size, -1), dag.edge_parent])
    child = np.concatenate([dag.roots, dag.edge_child])
    order = np.lexsort((child, parent, depths.depth[child]))
    parent, child = parent[order], child[order]
    child_depth = depths.depth[child]
    first = np.ones(child.size, dtype=bool)
    first[1:] = ((parent[1:] != parent[:-1])
                 | (child_depth[1:] != child_depth[:-1]))
    mem_group = np.cumsum(first) - 1
    return {"mem_node": child, "mem_group": mem_group,
            "group_parent": parent[first], "group_depth": child_depth[first],
            "group_size": np.bincount(mem_group),
            "n_d": np.bincount(child_depth[first],
                               minlength=depths.max_depth + 1),
            "depth_sizes": np.diff(dag.node_ptr, prepend=0)}


def old_lca_depth(canon, depth, max_depth, a, w):
    a, w = a.copy(), w.copy()
    jumps = [canon]
    while (1 << len(jumps)) < max_depth:
        jumps.append(jumps[-1][jumps[-1]])
    gap = depth[w] - depth[a]
    for k, jump in enumerate(jumps):
        lift = (gap >> k) & 1 == 1
        w[lift] = jump[w[lift]]
    for jump in reversed(jumps):
        ja, jw = jump[a], jump[w]
        move = ja != jw
        a[move] = ja[move]
        w[move] = jw[move]
    return np.where(a == w, depth[a],
                    np.where(canon[a] == canon[w], depth[a] - 1, 0))


def old_disjoint_depths(dag, depths):
    depth = np.asarray(depths.depth, dtype=np.intp)
    parent, child = dag.edge_parent, dag.edge_child
    tight = np.flatnonzero(depth[parent] == depth[child] - 1)
    kids, first = np.unique(child[tight], return_index=True)
    canon = np.arange(dag.m, dtype=np.intp)
    canon[kids] = parent[tight[first]]
    extra = canon[child] != parent
    a, w = parent[extra], child[extra]
    low = old_lca_depth(canon, depth, depths.max_depth, a, w)
    size = depths.max_depth + 2
    cover = np.cumsum(np.bincount(low + 1, minlength=size)
                      - np.bincount(depth[a] + 1, minlength=size))
    return frozenset(d for d in depths.levels if cover[d] == 0)


# ------------------------------------------------------------------- graphs
def chain(rng, m):
    """A path through m nodes numbered in a random order, with a few
    skip-level edges down it."""
    ids = rng.permutation(m)
    edges = set(zip(ids[:-1].tolist(), ids[1:].tolist()))
    for _ in range(int(rng.integers(0, 6))):
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        edges.add((int(ids[i]), int(ids[j])))
    return build_dag(m, sorted(edges))


def skip_levels(rng, m):
    """Levels of 1-12 nodes, each non-root node with a parent in the level
    above and 0-3 more from any shallower level, ids shuffled."""
    sizes = rng.integers(1, 13, size=m)
    sizes = sizes[:np.searchsorted(np.cumsum(sizes), m) + 1]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    ids = rng.permutation(int(starts[-1]))
    edges = set()
    for d in range(1, sizes.size):
        for v in range(starts[d], starts[d + 1]):
            edges.add((int(rng.integers(starts[d - 1], starts[d])), v))
            for u in rng.integers(0, starts[d], size=rng.integers(0, 4)):
                edges.add((int(u), v))
    pairs = np.array([(ids[a], ids[b]) for a, b in edges], dtype=np.intp)
    return build_dag(ids.size, rng.permutation(pairs))


def wide(rng, m):
    """Few levels, many ties: each of m nodes beyond 4 roots takes 1-4
    parents among the nodes before it, in shuffled edge order."""
    edges = {(int(rng.integers(0, max(v - 1, 1))), v) for v in range(4, m)}
    edges |= {(int(u), v) for v in range(4, m)
              for u in rng.integers(0, v, size=rng.integers(0, 4))}
    pairs = np.array(sorted(edges), dtype=np.intp)
    return build_dag(m, rng.permutation(pairs))


GRAPHS = {"random-dag": lambda rng, m: random_dag(rng, min(m, 120), 0.3),
          "random-tree": lambda rng, m: random_tree(rng, m),
          "chain": chain, "skip-levels": skip_levels, "wide": wide}


def check_against_oracles(dag):
    for name, want in old_layout(dag).items():
        got = getattr(dag, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    depths = compute_depths(dag)
    groups = group_index(dag, depths)
    for name, want in old_group_index(dag, depths).items():
        got = getattr(groups, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (disjoint_descendant_depths(dag, depths)
            == old_disjoint_depths(dag, depths))


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(sorted(GRAPHS)),
       m=st.sampled_from([2, 5, 30, 200, 600]))
@settings(max_examples=120, deadline=None)
def test_structure_equals_the_old_sorts(seed, shape, m):
    check_against_oracles(GRAPHS[shape](np.random.default_rng(seed), m))


@pytest.mark.parametrize("m", [256, 257, 700])
def test_a_chain_deeper_than_255_levels_takes_the_uint16_path(m):
    dag = chain(np.random.default_rng(m), m)
    assert dag.node_ptr.size - 1 >= 256
    assert _narrow(dag.depth).dtype == np.uint16
    check_against_oracles(dag)


def test_the_simulation_graphs_equal_the_old_sorts():
    for family in ("wide-tree", "deep-tree"):
        check_against_oracles(generate_graph(family))
    for seed in range(3):
        check_against_oracles(generate_graph("bipartite1", seed))
        check_against_oracles(generate_graph("bipartite2", seed))


@pytest.mark.parametrize("top, dtype", [(0, np.uint8), (255, np.uint8),
                                        (256, np.uint16), (65535, np.uint16),
                                        (65536, np.uint32)])
def test_narrow_takes_the_smallest_unsigned_type(top, dtype):
    values = np.array([0, top // 2, top], dtype=np.intp)
    narrow = _narrow(values)
    assert narrow.dtype == dtype
    assert narrow.tolist() == values.tolist()
    assert _narrow(np.empty(0, dtype=np.intp)).dtype == np.uint8


# ------------------------------------------------------------------ repeats
KEYS = st.one_of(
    st.lists(st.integers(-2**62, 2**62), max_size=300),
    # a small alphabet: repeats, negative keys among them, almost surely
    st.lists(st.integers(-5, 5), max_size=300),
    st.lists(st.integers(-2**40, 2**40), max_size=300, unique=True))


@given(keys=KEYS)
@settings(max_examples=200, deadline=None)
def test_repeats_equals_the_stable_form(keys):
    keys = np.array(keys, dtype=np.intp)
    mask, order = repeats(keys)
    want_mask, want_order = old_repeats(keys)
    assert np.array_equal(mask, want_mask)
    assert np.array_equal(order, want_order)


def test_repeats_on_many_equal_keys_marks_each_later_entry():
    # large enough that numpy's default sort moves equal keys about
    rng = np.random.default_rng(3)
    keys = rng.integers(-50, 50, size=20_000)
    mask, order = repeats(keys)
    want_mask, want_order = old_repeats(keys)
    assert np.array_equal(mask, want_mask)
    assert np.array_equal(order, want_order)


def test_repeats_sorts_stably_only_when_keys_repeat(sorts):
    repeats(np.array([5, -3, 9, 0, -2**40]))
    assert [(c[1], c[3]) for c in sorts] == [(None, "repeats")]
    sorts.clear()
    repeats(np.array([5, -3, 9, 5]))
    assert [(c[1], c[3]) for c in sorts] == [(None, "repeats"),
                                             ("stable", "repeats")]


# ------------------------------------------------------------------- guard
STABLE = ("stable", "mergesort")


def build_structure(make):
    dag = make()
    plan = StructurePlan(dag, WeightConfig())
    structure_summary(dag, plan.depths, plan.groups)
    return dag


def test_the_structure_path_runs_no_lexsort_nor_wide_stable_sort(sorts):
    makers = [lambda seed=seed: random_dag(np.random.default_rng(seed), 60)
              for seed in range(5)]
    makers += [lambda seed=seed: generate_graph("bipartite2", seed)
               for seed in range(3)]
    makers += [lambda seed=seed: skip_levels(np.random.default_rng(seed), 400)
               for seed in range(3)]
    for make in makers:
        dag = build_structure(make)
        # the Dag's edges again, shuffled, through the edge check
        pairs = np.column_stack((dag.edge_parent, dag.edge_child))
        build_structure(lambda: build_dag(
            dag.m, np.random.default_rng(0).permutation(pairs)))
    assert sorts, "the guard saw no sort"
    assert [c for c in sorts if c[0] == "lexsort"] == []
    wide_stable = [c for c in sorts
                   if c[0] == "argsort" and c[1] in STABLE and c[2] > 2]
    # repeats' re-sort runs only on equal keys, and these graphs hold none
    assert wide_stable == []


def test_the_guard_sees_a_wide_stable_sort_and_a_lexsort(sorts):
    dag = random_dag(np.random.default_rng(0), 20)
    old_group_index(dag, compute_depths(dag))
    old_repeats(np.arange(10))
    assert ("lexsort", None, None, "old_group_index") in sorts
    assert ("argsort", "stable", 8, "old_repeats") in sorts
