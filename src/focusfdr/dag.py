"""Hypothesis DAG representation and the structural indexes the procedures use.

Nodes are dense integer ids in [0, m).  An edge (parent, child) points from
the source hypothesis to its refinement.  Building a Dag runs Kahn's
algorithm a level at a time, which yields the topological order, the
longest-path depths and cycle detection in one pass, and keeps the edges as
arrays ordered by child depth.  Depths, sibling groups (as membership
arrays), ``level_sweep`` and the structure checks are O(m + E)-class passes
over the edges.  Closures are computed lazily and cached on the Dag:

- ``descendant_closure``: the strict descendants of every node as a CSR
  (compressed sparse row) pair of integer arrays, each row sorted.
  Smoothing gathers its segments from it.
- ``ancestor_masks`` / ``descendant_masks``: one integer bitmask per node,
  O(m^2) bits in all.  They are oracle-only: ``apply_filter`` and the
  checks and tests built on it use them as the independent reference, and
  no production path (analysis, graph summaries, procedures, simulation)
  touches them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np


class DagError(ValueError):
    """Base class for graph construction and lookup errors."""


class CycleDetectedError(DagError):
    """A directed cycle; ``node`` is one node that lies on it."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SelfLoopError(DagError):
    pass


class DuplicateEdgeError(DagError):
    pass


class NodeIdOutOfRangeError(DagError, IndexError):
    pass


class Dag:
    """Immutable directed acyclic graph over nodes 0..m-1.

    All derived structure (topological order, closures) is computed once and
    shared; instances are safe to use from multiple threads.  ``edges`` is
    the set of (parent, child) pairs built while validating them; like
    every attribute, it is read-only.

    ``depth`` holds longest-path depths (roots have 1), ``topo_order`` the
    nodes by (depth, id).  ``edge_parent`` / ``edge_child`` list the edges
    by (child depth, child, parent), those into depth d at positions
    ``level_ptr[d - 1]:level_ptr[d]``.
    """

    def __init__(self, m, edges):
        if m < 0:
            raise DagError("node count must be nonnegative")
        seen = set()
        children = [[] for _ in range(m)]
        parents = [[] for _ in range(m)]
        for a, b in edges:
            a, b = int(a), int(b)
            if not (0 <= a < m) or not (0 <= b < m):
                raise NodeIdOutOfRangeError(f"edge ({a}, {b}) outside [0, {m})")
            if a == b:
                raise SelfLoopError(f"self-loop at node {a}")
            if (a, b) in seen:
                raise DuplicateEdgeError(f"duplicate edge {(a, b)}")
            seen.add((a, b))
            children[a].append(b)
            parents[b].append(a)

        self.m = int(m)
        self.edges = seen
        self.children = tuple(tuple(sorted(c)) for c in children)
        self.parents = tuple(tuple(sorted(p)) for p in parents)
        depth, parent, child = self._levels()
        order = np.argsort(depth[child], kind="stable")
        self.depth = _read_only(depth)
        self.edge_parent = _read_only(parent[order])
        self.edge_child = _read_only(child[order])
        self.level_ptr = _read_only(np.cumsum(np.bincount(
            depth[child], minlength=depth.max(initial=0) + 1)))
        self.topo_order = tuple(np.argsort(depth, kind="stable").tolist())
        self.roots = tuple(i for i in range(m) if not self.parents[i])
        self.leaves = tuple(i for i in range(m) if not self.children[i])
        self._anc_masks = None
        self._desc_masks = None
        self._desc_closure = None

    def _levels(self):
        """Kahn's algorithm a whole level per round: the round that removes a
        node is its depth.  Returns depths and the edges grouped by child."""
        child = np.repeat(np.arange(self.m), [len(p) for p in self.parents])
        parent = np.fromiter(chain.from_iterable(self.parents), np.intp,
                             child.size)
        kids = np.fromiter(chain.from_iterable(self.children), np.intp,
                           child.size)
        n_kids = np.bincount(parent, minlength=self.m)
        kids_end = np.cumsum(n_kids)
        indeg = np.bincount(child, minlength=self.m)
        depth = np.zeros(self.m, dtype=np.intp)
        level, d = np.flatnonzero(indeg == 0), 0
        while level.size:
            d += 1
            depth[level] = d
            counts = n_kids[level]
            out = (np.repeat(kids_end[level] - np.cumsum(counts), counts)
                   + np.arange(counts.sum()))
            hit, times = np.unique(kids[out], return_counts=True)
            indeg[hit] -= times
            level = hit[indeg[hit] == 0]
        if indeg.any():
            # every node left unordered has an unordered parent: walking
            # those parents must revisit a node, and that node is on a cycle
            v = int(np.flatnonzero(indeg)[0])
            seen = set()
            while v not in seen:
                seen.add(v)
                v = next(a for a in self.parents[v] if indeg[a])
            raise CycleDetectedError(
                f"edge set contains a directed cycle through node {v}", node=v)
        return depth, parent, child

    def _check_node(self, node):
        if not (0 <= node < self.m):
            raise NodeIdOutOfRangeError(f"node {node} outside [0, {self.m})")

    @property
    def ancestor_masks(self):
        """Per-node bitmask of strict ancestors (bit i set <=> i is an ancestor)."""
        if self._anc_masks is None:
            masks = [0] * self.m
            for v in self.topo_order:
                acc = 0
                for p in self.parents[v]:
                    acc |= masks[p] | (1 << p)
                masks[v] = acc
            self._anc_masks = masks
        return self._anc_masks

    @property
    def descendant_masks(self):
        """Per-node bitmask of strict descendants."""
        if self._desc_masks is None:
            masks = [0] * self.m
            for v in reversed(self.topo_order):
                acc = 0
                for c in self.children[v]:
                    acc |= masks[c] | (1 << c)
                masks[v] = acc
            self._desc_masks = masks
        return self._desc_masks

    @property
    def descendant_closure(self):
        """Strict descendants in CSR form: ``(indptr, indices)``.

        Row v, ``indices[indptr[v]:indptr[v + 1]]``, holds v's strict
        descendants in ascending order.  Built in one reverse-topological
        pass that merges each node's children with their rows; both arrays
        are read-only.
        """
        if self._desc_closure is None:
            rows = [None] * self.m
            empty = np.empty(0, dtype=np.intp)
            for v in reversed(self.topo_order):
                kids = self.children[v]
                if not kids:
                    rows[v] = empty
                else:
                    rows[v] = np.unique(np.concatenate(
                        [np.asarray(kids, dtype=np.intp)]
                        + [rows[c] for c in kids]))
            indptr = np.zeros(self.m + 1, dtype=np.intp)
            np.cumsum([r.size for r in rows], out=indptr[1:])
            indices = np.concatenate(rows) if rows else empty
            self._desc_closure = (_read_only(indptr), _read_only(indices))
        return self._desc_closure

    def descendant_indices(self, node):
        """Sorted strict descendants of ``node``: a view of its row of
        ``descendant_closure``."""
        self._check_node(node)
        indptr, indices = self.descendant_closure
        return indices[indptr[node]:indptr[node + 1]]

    def __repr__(self):
        return f"Dag(m={self.m}, edges={len(self.edges)})"


def mask_of(nodes):
    """Integer bitmask for an iterable of node ids."""
    acc = 0
    for v in nodes:
        acc |= 1 << v
    return acc


def _read_only(array):
    array.flags.writeable = False
    return array


def build_dag(m, edges):
    """Validate and build a Dag; rejects cycles, self-loops and duplicates."""
    return Dag(m, edges)


@dataclass(frozen=True)
class DepthIndex:
    """Node depths (roots have depth 1) plus the per-depth level sets."""

    depth: np.ndarray
    levels: dict
    max_depth: int

    def nodes_at(self, d):
        return self.levels[d]


def compute_depths(dag):
    """Longest-path depth per node, from the Dag's level pass, and the nodes
    of each depth in ascending order."""
    order = np.fromiter(dag.topo_order, dtype=np.intp, count=dag.m)
    bounds = np.cumsum(np.bincount(dag.depth, minlength=1))
    levels = {d: order[bounds[d - 1]:bounds[d]] for d in range(1, bounds.size)}
    return DepthIndex(depth=dag.depth, levels=levels, max_depth=len(levels))


def level_sweep(dag, ufunc, values, upward=False):
    """Fold ``values`` in place along the edges, a level at a time: downward
    (parents first) each node takes ``ufunc`` of itself and its parents,
    upward (children first) of itself and its children.  Returns values."""
    ptr, tail, head = dag.level_ptr, dag.edge_parent, dag.edge_child
    if upward:
        tail, head = head, tail
    depths = range(2, ptr.size)
    for d in reversed(depths) if upward else depths:
        edges = slice(ptr[d - 1], ptr[d])
        ufunc.at(values, head[edges], values[tail[edges]])
    return values


def _reachable(adjacency, node):
    """Nodes reachable from ``node`` in one or more steps (breadth first)."""
    seen = set(adjacency[node])
    queue = deque(seen)
    while queue:
        for u in adjacency[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return frozenset(seen)


def ancestors(dag, node):
    """Strict ancestors of ``node`` (transitive closure along reversed edges)."""
    dag._check_node(node)
    return _reachable(dag.parents, node)


def descendants(dag, node):
    """Strict descendants of ``node``."""
    dag._check_node(node)
    return _reachable(dag.children, node)


@dataclass(frozen=True)
class GroupIndex:
    """Sibling groups as arrays: group g has ``group_parent[g]`` (-1 for the
    roots' dummy parent), ``group_depth[g]`` and ``group_size[g]``, and
    membership k puts node ``mem_node[k]`` in group ``mem_group[k]``."""

    mem_node: np.ndarray
    mem_group: np.ndarray
    group_parent: np.ndarray
    group_depth: np.ndarray
    group_size: np.ndarray
    n_d: dict
    depth_sizes: dict


def group_index(dag, depths):
    """Group the nodes of each depth by shared parent.

    The roots always form a single group under the dummy parent, so n_1 = 1;
    every edge (a, c) makes c a member of a's group at depth(c), so for
    d > 1, n_d counts the nodes (at any shallower depth) with at least one
    child of depth d.  Groups are ordered by (depth, parent) and memberships
    by (group, node); ``depth_sizes`` holds |H_d|.
    """
    roots = np.flatnonzero(depths.depth == 1)
    parent = np.concatenate([np.full(roots.size, -1), dag.edge_parent])
    child = np.concatenate([roots, dag.edge_child])
    order = np.lexsort((child, parent, depths.depth[child]))
    parent, child = parent[order], child[order]
    child_depth = depths.depth[child]
    first = np.ones(child.size, dtype=bool)
    first[1:] = ((parent[1:] != parent[:-1])
                 | (child_depth[1:] != child_depth[:-1]))
    mem_group = np.cumsum(first) - 1
    n_d = np.bincount(child_depth[first], minlength=depths.max_depth + 1)
    return GroupIndex(
        mem_node=child, mem_group=mem_group, group_parent=parent[first],
        group_depth=child_depth[first], group_size=np.bincount(mem_group),
        n_d={d: int(n_d[d]) for d in depths.levels},
        depth_sizes={d: len(level) for d, level in depths.levels.items()})


def is_tree(dag):
    """True iff every non-root node has exactly one parent."""
    child = dag.edge_child      # each child's edges are adjacent
    return not np.any(child[1:] == child[:-1])


def _canonical_lca_depth(canon, depth, max_depth, a, w):
    """Depth of lca(a[i], w[i]) in the forest ``canon`` (roots map to
    themselves), 0 when the two lie in different trees.  Needs
    depth[w] >= depth[a]; vectorized binary lifting over all pairs."""
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
    # a == w: a was an ancestor of w; otherwise the parents now agree
    # unless a and w are the distinct roots of two trees
    return np.where(a == w, depth[a],
                    np.where(canon[a] == canon[w], depth[a] - 1, 0))


def disjoint_descendant_depths(dag, depths):
    """Depths whose nodes have pairwise disjoint descendant sets.

    Every non-root node w has a parent of depth depth(w) - 1 (depth is the
    longest path); fixing one such canonical parent per node gives a
    spanning forest.  Depth d is not disjoint iff some non-canonical edge
    a -> w has depth(lca(a, w)) < d <= depth(a), with the LCA taken in the
    canonical forest (depth 0 across trees): then a's and w's canonical
    ancestors at depth d differ and both have w as a descendant, and any
    shared descendant of two depth-d nodes is reached by a path that
    crosses such an edge.  Trees have no non-canonical edge, so all their
    depths are disjoint.  O((m + E) log max_depth) time, no closure.
    """
    depth = np.asarray(depths.depth, dtype=np.intp)
    parent, child = dag.edge_parent, dag.edge_child
    tight = np.flatnonzero(depth[parent] == depth[child] - 1)
    kids, first = np.unique(child[tight], return_index=True)
    canon = np.arange(dag.m, dtype=np.intp)
    canon[kids] = parent[tight[first]]
    extra = canon[child] != parent
    a, w = parent[extra], child[extra]
    low = _canonical_lca_depth(canon, depth, depths.max_depth, a, w)
    # each edge covers the depths low+1 .. depth(a): a difference array
    size = depths.max_depth + 2
    cover = np.cumsum(np.bincount(low + 1, minlength=size)
                      - np.bincount(depth[a] + 1, minlength=size))
    return frozenset(d for d in depths.levels if cover[d] == 0)


def check_heredity(dag, nonnull):
    """True iff every ancestor of every non-null node is also non-null.

    A set is ancestor-closed iff it is parent-closed, so only the parents
    of each non-null node are looked at.
    """
    nn = frozenset(nonnull)
    for v in nn:
        dag._check_node(v)
    return all(a in nn for v in nn for a in dag.parents[v])
