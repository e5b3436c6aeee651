"""Hypothesis DAG representation and the structural indexes the procedures use.

Nodes are dense integer ids in [0, m).  An edge (parent, child) points from
the source hypothesis to its refinement.  Closures are computed lazily and
cached on the Dag:

- ``descendant_closure``: the strict descendants of every node as a CSR
  (compressed sparse row) pair of integer arrays, each row sorted.
  Smoothing gathers its segments from it.
- ``ancestor_masks`` / ``descendant_masks``: one integer bitmask per node.
  Filters (``apply_filter``), ``check_heredity``,
  ``disjoint_descendant_depths`` and ``ancestors`` / ``descendants`` still
  use these; they take O(m^2) bits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


class DagError(ValueError):
    """Base class for graph construction and lookup errors."""


class CycleDetectedError(DagError):
    pass


class SelfLoopError(DagError):
    pass


class DuplicateEdgeError(DagError):
    pass


class NodeIdOutOfRangeError(DagError, IndexError):
    pass


class Dag:
    """Immutable directed acyclic graph over nodes 0..m-1.

    All derived structure (topological order, closures) is computed once and
    shared; instances are safe to use from multiple threads.
    """

    def __init__(self, m, edges):
        edges = [(int(a), int(b)) for a, b in edges]
        if m < 0:
            raise DagError("node count must be nonnegative")
        for a, b in edges:
            if not (0 <= a < m) or not (0 <= b < m):
                raise NodeIdOutOfRangeError(f"edge ({a}, {b}) outside [0, {m})")
            if a == b:
                raise SelfLoopError(f"self-loop at node {a}")
        if len(set(edges)) != len(edges):
            seen, dup = set(), None
            for e in edges:
                if e in seen:
                    dup = e
                    break
                seen.add(e)
            raise DuplicateEdgeError(f"duplicate edge {dup}")

        self.m = int(m)
        self.edges = frozenset(edges)
        children = [[] for _ in range(m)]
        parents = [[] for _ in range(m)]
        for a, b in edges:
            children[a].append(b)
            parents[b].append(a)
        self.children = tuple(tuple(sorted(c)) for c in children)
        self.parents = tuple(tuple(sorted(p)) for p in parents)
        self.topo_order = self._toposort()
        self.roots = tuple(i for i in range(m) if not self.parents[i])
        self.leaves = tuple(i for i in range(m) if not self.children[i])
        self._anc_masks = None
        self._desc_masks = None
        self._desc_closure = None

    def _toposort(self):
        indeg = [len(p) for p in self.parents]
        queue = deque(i for i in range(self.m) if indeg[i] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in self.children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != self.m:
            raise CycleDetectedError("edge set contains a directed cycle")
        return tuple(order)

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
            indptr.flags.writeable = False
            indices.flags.writeable = False
            self._desc_closure = (indptr, indices)
        return self._desc_closure

    def descendant_indices(self, node):
        """Sorted strict descendants of ``node``: a view of its row of
        ``descendant_closure``."""
        self._check_node(node)
        indptr, indices = self.descendant_closure
        return indices[indptr[node]:indptr[node + 1]]

    def __repr__(self):
        return f"Dag(m={self.m}, edges={len(self.edges)})"


def _mask_to_list(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(nodes):
    """Integer bitmask for an iterable of node ids."""
    acc = 0
    for v in nodes:
        acc |= 1 << v
    return acc


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
    """Longest-path depth per node: depth(v) = 1 + max over parents."""
    depth = np.zeros(dag.m, dtype=np.intp)
    for v in dag.topo_order:
        if dag.parents[v]:
            depth[v] = 1 + max(depth[p] for p in dag.parents[v])
        else:
            depth[v] = 1
    max_depth = int(depth.max()) if dag.m else 0
    levels = {d: np.flatnonzero(depth == d) for d in range(1, max_depth + 1)}
    return DepthIndex(depth=depth, levels=levels, max_depth=max_depth)


def ancestors(dag, node):
    """Strict ancestors of ``node`` (transitive closure along reversed edges)."""
    dag._check_node(node)
    return frozenset(_mask_to_list(dag.ancestor_masks[node]))


def descendants(dag, node):
    """Strict descendants of ``node``."""
    dag._check_node(node)
    return frozenset(_mask_to_list(dag.descendant_masks[node]))


@dataclass(frozen=True)
class Group:
    """One sibling group: the children of ``parent`` lying at ``depth``.

    ``parent is None`` marks the dummy super-root whose children are all the
    depth-1 roots; the dummy never carries a p-value or appears in closures.
    """

    parent: object
    depth: int
    members: tuple

    @property
    def size(self):
        return len(self.members)


@dataclass(frozen=True)
class GroupIndex:
    """Sibling groups per depth, group counts n_d, and per-node memberships."""

    by_depth: dict
    n_d: dict
    node_groups: tuple
    depth_sizes: dict


def group_index(dag, depths):
    """Group the nodes of each depth by shared parent.

    The roots always form a single group keyed by the dummy parent, so
    n_1 = 1; for d > 1, n_d counts the nodes (at any shallower depth) with
    at least one child of depth d.
    """
    by_depth = {d: [] for d in range(1, depths.max_depth + 1)}
    node_groups = [[] for _ in range(dag.m)]

    if depths.max_depth >= 1:
        root_group = Group(parent=None, depth=1,
                           members=tuple(int(v) for v in depths.levels[1]))
        by_depth[1].append(root_group)
        for v in root_group.members:
            node_groups[v].append(root_group)

    for a in range(dag.m):
        buckets = {}
        for c in dag.children[a]:
            buckets.setdefault(int(depths.depth[c]), []).append(c)
        for d, members in sorted(buckets.items()):
            g = Group(parent=a, depth=d, members=tuple(sorted(members)))
            by_depth[d].append(g)
            for v in g.members:
                node_groups[v].append(g)

    n_d = {d: len(gs) for d, gs in by_depth.items()}
    depth_sizes = {d: len(depths.levels[d]) for d in by_depth}
    return GroupIndex(by_depth=by_depth, n_d=n_d,
                      node_groups=tuple(tuple(gs) for gs in node_groups),
                      depth_sizes=depth_sizes)


def is_tree(dag):
    """True iff every non-root node has exactly one parent."""
    return all(len(dag.parents[v]) == 1 for v in range(dag.m)
               if dag.parents[v])


def disjoint_descendant_depths(dag, depths):
    """Depths whose nodes have pairwise disjoint descendant sets.

    Uses the popcount identity: the per-node descendant sets at a depth are
    pairwise disjoint iff the popcount of their union equals the sum of the
    individual popcounts.
    """
    masks = dag.descendant_masks
    out = set()
    for d, level in depths.levels.items():
        union = 0
        total = 0
        for v in level:
            union |= masks[v]
            total += masks[v].bit_count()
        if union.bit_count() == total:
            out.add(d)
    return frozenset(out)


def check_heredity(dag, nonnull):
    """True iff every ancestor of every non-null node is also non-null."""
    nn_mask = mask_of(nonnull)
    anc = dag.ancestor_masks
    for v in nonnull:
        dag._check_node(v)
        if anc[v] & ~nn_mask:
            return False
    return True
