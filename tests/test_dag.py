"""Structural tests for the hypothesis DAG and its derived indexes."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import focusfdr.dag as dag_module
from focusfdr.checks import random_tree
from focusfdr.dag import (CycleDetectedError, Dag, DagError,
                          DuplicateEdgeError, NodeIdOutOfRangeError,
                          SelfLoopError, _edge_arrays, ancestors, build_dag,
                          check_heredity, compute_depths, descendants,
                          disjoint_descendant_depths, group_index, is_tree,
                          level_sweep)
from focusfdr.simulate import assign_truth, generate_graph

from helpers import children, parents, random_near_tree


def chain3():
    return build_dag(3, [(0, 1), (1, 2)])


def diamond_tail():
    return build_dag(4, [(0, 2), (1, 2), (2, 3)])


def random_dag(rng, max_m=14, edge_prob=0.3):
    m = int(rng.integers(2, max_m + 1))
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)
             if rng.random() < edge_prob]
    return build_dag(m, edges)


def test_build_chain():
    dag = chain3()
    assert dag.roots.tolist() == [0] and dag.leaves.tolist() == [2]


def test_build_rejects_cycle():
    with pytest.raises(CycleDetectedError):
        build_dag(3, [(0, 1), (1, 2), (2, 0)])


def test_build_rejects_self_loop_duplicate_out_of_range():
    with pytest.raises(SelfLoopError):
        build_dag(2, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        build_dag(2, [(0, 1), (0, 1)])
    with pytest.raises(NodeIdOutOfRangeError):
        build_dag(2, [(0, 2)])


@pytest.mark.parametrize("m, edges", [
    (3, [(0, 1.5)]), (3, [(False, True)]), (3, [(0, True)]),
    (3, np.array([[0.0, 1.0]])), (3, [(0, "1")]), (3, np.array([[0, 1]]) > 0)])
def test_build_rejects_edge_ids_that_are_not_integers(m, edges):
    # read as intp, (0, 1.5) and (False, True) both built the edge (0, 1)
    with pytest.raises(DagError, match=re.escape(
            "edges must be (parent, child) pairs of integer ids")):
        build_dag(m, edges)


@pytest.mark.parametrize("m", [True, 2.5, -1, "3", np.float64(3.0)])
def test_build_rejects_a_node_count_that_is_not_a_count(m):
    # True built one node and 2.5 raised a bare TypeError
    with pytest.raises(DagError, match=re.escape(
            f"node count must be an integer >= 0, got {m!r}")):
        build_dag(m, [])


def test_build_takes_integer_arrays_and_empty_edge_lists_as_before():
    edges = np.array([[0, 1], [1, 2]], dtype=np.intp)
    parent, child = _edge_arrays(edges)
    assert np.shares_memory(parent, edges) and np.shares_memory(child, edges)
    assert build_dag(np.int64(3), edges.astype(np.int32)).edges == {
        (0, 1), (1, 2)}
    for empty in ([], np.empty((0, 2)), iter(())):
        dag = build_dag(2, empty)
        assert dag.m == 2 and dag.edges == frozenset()
    assert build_dag(3, [(np.int64(0), 1)]).edges == {(0, 1)}


@pytest.mark.parametrize("node", [1.5, True, np.True_, -1, 3, "1"])
def test_node_lookups_take_only_node_ids(node):
    # descendants(dag, 1.5) raised a bare IndexError, and True was node 1
    dag = chain3()
    for call in (descendants, ancestors, Dag.descendant_indices):
        with pytest.raises(NodeIdOutOfRangeError, match=re.escape(
                f"node {node!r} is not an integer id in [0, 3)")):
            call(dag, node)


def test_build_diamond_tail():
    dag = diamond_tail()
    assert dag.roots.tolist() == [0, 1]
    assert children(dag)[2] == (3,)
    assert parents(dag)[2] == (0, 1)


def test_depths_chain():
    depths = compute_depths(chain3())
    assert list(depths.depth) == [1, 2, 3]
    assert depths.max_depth == 3


def test_depths_diamond_tail():
    depths = compute_depths(diamond_tail())
    assert list(depths.depth) == [1, 1, 2, 3]


def check_depth_recursion(dag, depths):
    """Every edge goes at least one level down, each node lies one level
    below its deepest parent, and the levels partition the nodes."""
    for a, b in dag.edges:
        assert depths.depth[b] >= depths.depth[a] + 1
    for v, ps in enumerate(parents(dag)):
        if ps:
            assert depths.depth[v] == 1 + max(depths.depth[p] for p in ps)
    assert sum(len(lvl) for lvl in depths.levels.values()) == dag.m


def test_depths_edge_inequality_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dag = random_dag(rng)
        check_depth_recursion(dag, compute_depths(dag))


def test_ancestors_descendants_small():
    dag = chain3()
    assert descendants(dag, 0) == {1, 2}
    assert ancestors(dag, 2) == {0, 1}
    assert ancestors(dag, 0) == frozenset()
    dag2 = diamond_tail()
    assert ancestors(dag2, 3) == {0, 1, 2}
    with pytest.raises(NodeIdOutOfRangeError):
        ancestors(dag, 5)


def test_ancestor_descendant_duality_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        dag = random_dag(rng)
        for a in range(dag.m):
            for b in descendants(dag, a):
                assert a in ancestors(dag, b)
        for b in range(dag.m):
            for a in ancestors(dag, b):
                assert b in descendants(dag, a)


def members_of(groups, g):
    return groups.mem_node[groups.mem_group == g].tolist()


def test_group_index_chain():
    dag = chain3()
    depths = compute_depths(dag)
    groups = group_index(dag, depths)
    assert groups.n_d.tolist() == [0, 1, 1, 1]
    assert groups.depth_sizes.tolist() == [0, 1, 1, 1]
    # the root group comes first, under the dummy parent
    assert groups.group_parent[0] == -1 and groups.group_depth[0] == 1
    assert members_of(groups, 0) == [0]


def test_group_index_partition_and_membership_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        dag = random_dag(rng)
        depths = compute_depths(dag)
        groups = group_index(dag, depths)
        assert groups.n_d[1] == 1
        for d in depths.levels:
            members = set()
            for g in np.flatnonzero(groups.group_depth == d):
                assert groups.group_size[g] > 0
                assert groups.group_size[g] == len(members_of(groups, g))
                members.update(members_of(groups, g))
            assert members == set(int(v) for v in depths.levels[d])
        # membership count = parent count (1 for roots via the dummy group)
        counts = np.bincount(groups.mem_node, minlength=dag.m)
        par = parents(dag)
        for v in range(dag.m):
            assert counts[v] == max(len(par[v]), 1)
        # each membership joins a node to a group of its own depth under
        # one of its parents (the dummy one for roots)
        for v, g in zip(groups.mem_node, groups.mem_group):
            assert groups.group_depth[g] == depths.depth[v]
            assert groups.group_parent[g] in (par[v] or (-1,))
        check_n_d_formula(dag, depths, groups)


def check_n_d_formula(dag, depths, groups):
    """n_d counts the nodes at shallower depths with children at depth d
    (the roots' dummy parent at depth 1), and |H_d| the nodes of depth d;
    both are 0 at depth 0."""
    kids = children(dag)
    n_d = [0, 1] + [sum(1 for a in range(dag.m)
                        if depths.depth[a] < d
                        and any(depths.depth[c] == d for c in kids[a]))
                    for d in range(2, depths.max_depth + 1)]
    assert groups.n_d.tolist() == n_d
    assert groups.depth_sizes.tolist() == [
        int(np.sum(depths.depth == d)) for d in range(depths.max_depth + 1)]


def test_group_index_tree_single_membership():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(2, 15))
        edges = [(int(rng.integers(0, j)), j) for j in range(1, m)]
        dag = build_dag(m, edges)
        depths = compute_depths(dag)
        groups = group_index(dag, depths)
        assert np.all(np.bincount(groups.mem_node, minlength=m) == 1)


def test_is_tree():
    assert is_tree(chain3())
    assert not is_tree(build_dag(3, [(0, 2), (1, 2)]))


def test_disjoint_descendant_depths():
    assert disjoint_descendant_depths(chain3(), compute_depths(chain3())) == {1, 2, 3}
    dag = diamond_tail()
    dt = disjoint_descendant_depths(dag, compute_depths(dag))
    assert 1 not in dt and {2, 3} <= dt
    iso = build_dag(2, [])
    assert disjoint_descendant_depths(iso, compute_depths(iso)) == {1}


def test_disjoint_descendant_depths_all_on_trees():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 15))
        dag = build_dag(m, [(int(rng.integers(0, j)), j) for j in range(1, m)])
        depths = compute_depths(dag)
        assert disjoint_descendant_depths(dag, depths) == set(depths.levels)


def test_check_heredity():
    dag = chain3()
    assert not check_heredity(dag, {2})
    assert check_heredity(dag, {0, 1, 2})
    assert check_heredity(dag, set())


def test_isolated_nodes_are_depth1_roots_and_leaves():
    dag = build_dag(3, [(0, 1)])
    depths = compute_depths(dag)
    assert 2 in dag.roots and 2 in dag.leaves
    assert depths.depth[2] == 1


GRAPHS = {"dag": random_dag, "tree": random_tree, "near-tree": random_near_tree}
SHAPES = st.sampled_from(sorted(GRAPHS))


def mask_members(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def path(rng, max_m):
    """A path through max_m nodes, numbered in a random order."""
    ids = rng.permutation(max_m)
    return build_dag(max_m, np.column_stack((ids[:-1], ids[1:])))


def shared_levels(rng, max_m):
    """Levels of up to 8 nodes, each non-root node taking 1-3 parents from
    any shallower level, so rows of several levels share descendants and
    a level's children lie in several deeper levels; ids are shuffled."""
    sizes = rng.integers(1, 9, size=max_m)
    sizes = sizes[:np.searchsorted(np.cumsum(sizes), max_m) + 1]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    ids = rng.permutation(int(starts[-1]))
    edges = set()
    for d in range(1, sizes.size):
        for v in range(starts[d], starts[d + 1]):
            # one parent in the level above keeps v at this depth
            edges.add((int(rng.integers(starts[d - 1], starts[d])), v))
            for u in rng.integers(0, starts[d], size=rng.integers(0, 3)):
                edges.add((int(u), v))
    return build_dag(ids.size, [(ids[a], ids[b]) for a, b in sorted(edges)])


# (shape, max_m): the small shapes, then deep ones (many levels, children
# several levels down, descendants shared across levels)
CLOSURE_CASES = ([(shape, max_m) for shape in sorted(GRAPHS)
                  for max_m in (2, 14, 40)]
                 + [("near-tree", 200), ("path", 300),
                    ("shared-levels", 60), ("shared-levels", 150)])
CLOSURE_GRAPHS = {**GRAPHS, "path": path, "shared-levels": shared_levels}


def check_closure_rows(seed, case):
    shape, max_m = case
    dag = CLOSURE_GRAPHS[shape](np.random.default_rng(seed), max_m)
    indptr, indices = dag.descendant_closure
    assert indptr.dtype == np.intp and indices.dtype == np.int32
    assert not indptr.flags.writeable and not indices.flags.writeable
    assert indptr.shape == (dag.m + 1,) and indptr[0] == 0
    assert indices.size == indptr[-1]
    for v in range(dag.m):
        row = indices[indptr[v]:indptr[v + 1]]
        assert row.tolist() == [v] + sorted(
            mask_members(dag.descendant_masks[v]))
        assert np.array_equal(dag.descendant_indices(v), row[1:])
    # the searches behind ancestors/descendants against the bigint masks,
    # on at most 40 nodes (a search on a deep graph takes a step per level)
    rng = np.random.default_rng(seed)
    for v in rng.permutation(dag.m)[:40].tolist():
        assert descendants(dag, v) == mask_members(dag.descendant_masks[v])
        assert ancestors(dag, v) == mask_members(dag.ancestor_masks[v])


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(CLOSURE_CASES))
@settings(max_examples=150, deadline=None)
def test_descendant_closure_rows_match_masks(seed, case):
    check_closure_rows(seed, case)


@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(CLOSURE_CASES),
       bound=st.sampled_from([0, 40, 400]))
@settings(max_examples=150, deadline=None)
def test_descendant_closure_rows_match_masks_with_int64_keys(seed, case,
                                                             bound):
    # a low int32 key bound keys some levels (bound 0: every level) in int64
    with mock.patch.object(dag_module, "_INT32_KEYS", bound):
        check_closure_rows(seed, case)


def popcount_disjoint_depths(dag, depths):
    """Oracle: a level's descendant sets are pairwise disjoint iff the
    popcount of their union is the sum of their popcounts."""
    masks = dag.descendant_masks
    out = set()
    for d, level in depths.levels.items():
        union = 0
        for v in level:
            union |= masks[v]
        if union.bit_count() == sum(masks[v].bit_count() for v in level):
            out.add(d)
    return out


@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES,
       max_m=st.sampled_from([2, 14, 40]),
       edge_prob=st.sampled_from([0.05, 0.15, 0.3, 0.6]))
@settings(max_examples=200, deadline=None)
def test_disjoint_descendant_depths_match_popcount_oracle(seed, shape, max_m,
                                                          edge_prob):
    rng = np.random.default_rng(seed)
    dag = (random_dag(rng, max_m, edge_prob) if shape == "dag"
           else GRAPHS[shape](rng, max_m))
    depths = compute_depths(dag)
    assert disjoint_descendant_depths(dag, depths) == \
        popcount_disjoint_depths(dag, depths)


def test_disjoint_descendant_depths_deep_near_tree():
    # a 3000-deep path with side branches and a few cross edges: the
    # binary lifting spans many levels
    rng = np.random.default_rng(11)
    m = 4000
    edges = {(j - 1, j) for j in range(1, 3000)}
    edges |= {(int(rng.integers(0, j)), j) for j in range(3000, m)}
    edges |= {(100, 2500), (2999, 3500), (3100, 3200), (5, 3300)}
    dag = build_dag(m, sorted(edges))
    depths = compute_depths(dag)
    got = disjoint_descendant_depths(dag, depths)
    assert got == popcount_disjoint_depths(dag, depths)
    assert got != set(depths.levels)


def check_structure_oracles(dag):
    """The depth recursion, the n_d formula, disjoint depths by popcount
    and ``is_tree`` as at most one parent per node."""
    depths = compute_depths(dag)
    check_depth_recursion(dag, depths)
    check_n_d_formula(dag, depths, group_index(dag, depths))
    assert disjoint_descendant_depths(dag, depths) == \
        popcount_disjoint_depths(dag, depths)
    assert is_tree(dag) == all(len(p) <= 1 for p in parents(dag))


# the fixed trees once, the random bipartite families over a few seeds
FAMILY_CASES = ([("wide-tree", 0), ("deep-tree", 0)]
                + [(family, seed) for family in ("bipartite1", "bipartite2")
                   for seed in (0, 1, 2)])


@pytest.mark.parametrize("family, seed", FAMILY_CASES)
def test_structure_oracles_on_the_simulation_families(family, seed):
    check_structure_oracles(generate_graph(family, seed))


@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["path", "shared-levels"]),
       max_m=st.sampled_from([2, 14, 60, 150, 300]))
@settings(max_examples=60, deadline=None)
def test_structure_oracles_on_paths_and_shared_levels(seed, shape, max_m):
    # many levels, and children and shared descendants several levels down
    check_structure_oracles(CLOSURE_GRAPHS[shape](
        np.random.default_rng(seed), max_m))


@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES,
       max_m=st.sampled_from([2, 14, 40]))
@settings(max_examples=100, deadline=None)
def test_check_heredity_matches_mask_oracle(seed, shape, max_m):
    rng = np.random.default_rng(seed)
    dag = GRAPHS[shape](rng, max_m)
    anc = dag.ancestor_masks
    picked = [v for v in range(dag.m) if rng.random() < 0.4]
    closed = set(picked)
    for v in picked:
        closed |= mask_members(anc[v])
    for nonnull in (picked, closed, closed - {int(rng.integers(dag.m))}):
        nn_mask = sum(1 << v for v in set(nonnull))
        expected = all(anc[v] & ~nn_mask == 0 for v in nonnull)
        assert check_heredity(dag, nonnull) == expected


def test_descendant_closure_is_cached_and_read_only():
    dag = diamond_tail()
    indptr, indices = dag.descendant_closure
    assert dag.descendant_closure[1] is indices
    assert indptr.tolist() == [0, 3, 6, 8, 9]
    assert indices.tolist() == [0, 2, 3, 1, 2, 3, 2, 3, 3]
    with pytest.raises(ValueError):
        indices[0] = 1
    with pytest.raises(NodeIdOutOfRangeError):
        dag.descendant_indices(4)
    empty = build_dag(0, [])
    assert [a.tolist() for a in empty.descendant_closure] == [[0], []]


def test_closure_masks_are_cached():
    dag = diamond_tail()
    assert dag.ancestor_masks is dag.ancestor_masks
    assert dag.descendant_masks is dag.descendant_masks
    assert dag.ancestor_masks[3] == 0b111
    assert dag.descendant_masks[0] == 0b1100


def test_cycle_node_below_acyclic_part():
    # 0 -> 2 -> 5 and 0 -> 4 are acyclic, 5 -> 6 -> 7 -> 5 is the cycle,
    # and 1 hangs off it (6 -> 1 -> 3).  Node 1 sorts first among the
    # nodes left unordered; the parent walk from it must end on the cycle
    with pytest.raises(CycleDetectedError) as info:
        build_dag(8, [(0, 2), (2, 5), (5, 6), (6, 7), (7, 5), (6, 1), (1, 3),
                      (0, 4)])
    assert info.value.node == 6
    assert str(info.value) == "edge set contains a directed cycle through node 6"


# -- the level pass against per-node loops


def edge_free(rng, max_m):
    return build_dag(int(rng.integers(0, max_m + 1)), [])


STRUCTURES = {**GRAPHS, "edge-free": edge_free}


def structure_case(seed, shape, max_m, edge_prob):
    rng = np.random.default_rng(seed)
    if shape == "dag":
        return random_dag(rng, max_m, edge_prob)
    return STRUCTURES[shape](rng, max_m)


STRUCTURE_CASE = dict(seed=st.integers(0, 2**32 - 1),
                      shape=st.sampled_from(sorted(STRUCTURES)),
                      max_m=st.sampled_from([2, 14, 40]),
                      edge_prob=st.sampled_from([0.05, 0.15, 0.3, 0.6]))


def depth_oracle(dag):
    """Longest-path depths, relaxing every edge until nothing changes."""
    depth = [1] * dag.m
    changed = True
    while changed:
        changed = False
        for a, c in dag.edges:
            if depth[c] < depth[a] + 1:
                depth[c] = depth[a] + 1
                changed = True
    return depth


def group_oracle(dag, depth):
    """The per-node bucket loop: every group as (parent, depth, members) in
    the order weights flatten them (by depth, each depth in loop order),
    and each node's groups in the order its weight sums them."""
    by_depth = {d: [] for d in range(1, max(depth, default=0) + 1)}
    node_groups = [[] for _ in range(dag.m)]

    def add(group):
        by_depth[group[1]].append(group)
        for v in group[2]:
            node_groups[v].append(group)

    if dag.m:
        add((-1, 1, tuple(v for v in range(dag.m) if depth[v] == 1)))
    kids = children(dag)
    for a in range(dag.m):
        buckets = {}
        for c in kids[a]:
            buckets.setdefault(depth[c], []).append(c)
        for d, members in sorted(buckets.items()):
            add((a, d, tuple(sorted(members))))
    flat = [g for d in sorted(by_depth) for g in by_depth[d]]
    return flat, node_groups


@given(**STRUCTURE_CASE)
@settings(max_examples=200, deadline=None)
def test_level_pass_matches_per_node_loops(seed, shape, max_m, edge_prob):
    dag = structure_case(seed, shape, max_m, edge_prob)
    depths = compute_depths(dag)
    depth = depth_oracle(dag)
    assert depths.depth.tolist() == depth
    assert depths.max_depth == max(depth, default=0)
    for d, level in depths.levels.items():
        assert level.tolist() == [v for v in range(dag.m) if depth[v] == d]

    # a topological order: every node once, every edge forward, cut at
    # each depth by node_ptr
    position = {v: i for i, v in enumerate(dag.topo_order.tolist())}
    assert sorted(position) == list(range(dag.m))
    assert all(position[a] < position[c] for a, c in dag.edges)
    node_ptr = dag.node_ptr.tolist()
    assert node_ptr == [sum(x <= d for x in depth)
                        for d in range(depths.max_depth + 1)]
    par, kids = parents(dag), children(dag)
    assert dag.roots.tolist() == [v for v in range(dag.m) if not par[v]]
    assert dag.leaves.tolist() == [v for v in range(dag.m) if not kids[v]]

    # every edge once, by (child depth, child, parent), cut at each level
    edges = list(zip(dag.edge_parent.tolist(), dag.edge_child.tolist()))
    assert edges == sorted(dag.edges, key=lambda e: (depth[e[1]], e[1], e[0]))
    ptr = dag.level_ptr.tolist()
    assert len(ptr) == depths.max_depth + 1
    assert ptr[0] == 0 and ptr[-1] == len(edges)
    for d in range(1, len(ptr)):
        assert all(depth[c] == d for _, c in edges[ptr[d - 1]:ptr[d]])
    assert is_tree(dag) == all(len(p) <= 1 for p in par)

    groups = group_index(dag, depths)
    flat, node_groups = group_oracle(dag, depth)
    assert groups.group_parent.tolist() == [g[0] for g in flat]
    assert groups.group_depth.tolist() == [g[1] for g in flat]
    assert groups.group_size.tolist() == [len(g[2]) for g in flat]
    assert groups.mem_node.tolist() == [v for g in flat for v in g[2]]
    assert groups.mem_group.tolist() == [i for i, g in enumerate(flat)
                                         for _ in g[2]]
    position = {g: i for i, g in enumerate(flat)}
    pairs = list(zip(groups.mem_node.tolist(), groups.mem_group.tolist()))
    for v in range(dag.m):
        assert [g for n, g in pairs if n == v] == \
            [position[g] for g in node_groups[v]]
    assert groups.n_d.tolist() == [sum(g[1] == d for g in flat)
                                   for d in range(depths.max_depth + 1)]
    assert groups.depth_sizes.tolist() == [depth.count(d) for d in
                                           range(depths.max_depth + 1)]


@given(**STRUCTURE_CASE)
@settings(max_examples=100, deadline=None)
def test_level_sweep_folds_over_ancestors_and_descendants(seed, shape, max_m,
                                                          edge_prob):
    dag = structure_case(seed, shape, max_m, edge_prob)
    values = np.random.default_rng(seed).permutation(dag.m).astype(float)
    down = level_sweep(dag, np.maximum, values.copy())
    up = level_sweep(dag, np.minimum, values.copy(), upward=True)
    for v in range(dag.m):
        assert down[v] == max(values[[v, *ancestors(dag, v)]])
        assert up[v] == min(values[[v, *descendants(dag, v)]])


@given(p_nonnull=st.sampled_from([0.1, 0.5, 0.9]), **STRUCTURE_CASE)
@settings(max_examples=100, deadline=None)
def test_assign_truth_matches_per_node_loop(seed, shape, max_m, edge_prob,
                                            p_nonnull):
    dag = structure_case(seed, shape, max_m, edge_prob)
    truth = assign_truth(dag, p_nonnull, seed)
    drawn = [v for v in dag.leaves if v in truth]
    assert len(drawn) == round(p_nonnull * len(dag.leaves))
    # the per-node loop, from the leaves the draw picked
    nonnull = [v in drawn for v in range(dag.m)]
    kids = children(dag)
    for v in reversed(dag.topo_order):
        if kids[v]:
            nonnull[v] = any(nonnull[c] for c in kids[v])
    assert truth == {v for v in range(dag.m) if nonnull[v]}
