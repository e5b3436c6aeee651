"""Hypothesis DAG representation and the structural indexes the procedures use.

Nodes are dense integer ids in [0, m).  An edge (parent, child) points from
the source hypothesis to its refinement.  A Dag keeps its edges as integer
arrays only.  ``check_edges`` validates them in one vectorised pass (range
masks, ``a == b`` and a sort of ``a * m + b``) that reports the first
faulty edge in input order, and its sort gives the child CSR (compressed
sparse row) arrays.  Kahn's algorithm then runs a level at a time over
that CSR, which yields the topological order, the longest-path depths and
cycle detection in one pass, and the edges are kept a second time ordered
by child depth, each node's parents contiguous.  Depths, sibling groups
(as membership arrays), ``level_sweep`` and the structure checks are
O(m + E)-class passes over these arrays.

Each structure key is put in order by the cheapest sort that gives the
order a stable sort would:

- distinct int64 keys (``parent * m + child`` in ``check_edges``, through
  ``repeats``, and ``child * m + parent`` for the depth order of the
  edges) by numpy's default argsort, which on distinct keys is that
  order.  ``repeats`` sorts again stably only when two keys are equal,
  which is an error, so the first faulty entry is still the one named;
- depths (``topo_order``, the edges' child depths, and the sibling groups'
  memberships, read in the child CSR's (parent, child) order) by a stable
  argsort of the depths as the smallest unsigned type that holds them
  (``_narrow``), which numpy runs as a radix sort up to 16 bits.

``children``, ``parents`` and ``edges`` are Python views of the arrays,
built on first use for tests, oracles and tracing; no production path
reads them.  Closures are computed lazily and cached on the Dag:

- ``descendant_closure``: every node followed by its strict descendants,
  ascending, as a CSR pair: an intp ``indptr`` and int32 ``indices``.  It
  is built a depth level at a time, deepest first, with one sort of
  ``owner * m + node`` keys per level (``np.unique`` would hash the integer
  keys, which is slower).  A level's keys are int32 when they all fit
  (``level.size * m <= _INT32_KEYS``, 2**31) and int64 otherwise, and each
  owner's segment is found by a sorted search.  Smoothing combines its rows
  as they stand.
- ``ancestor_masks`` / ``descendant_masks``: one integer bitmask per node,
  O(m^2) bits in all.  They are oracle-only: ``apply_filter`` and the
  checks and tests built on it use them as the independent reference, and
  no production path (analysis, graph summaries, procedures, simulation)
  touches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

# A closure level of L owners is keyed in int32 when L * m is at most this
# bound (its keys ``owner * m + node`` then all lie below 2**31), else in
# int64.
_INT32_KEYS = 2 ** 31


class DagError(ValueError):
    """Base class for graph construction and lookup errors."""


class CycleDetectedError(DagError):
    """A directed cycle; ``node`` is one node that lies on it."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class EdgeError(DagError):
    """A faulty edge; ``index`` is its position in the input, if known."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SelfLoopError(EdgeError):
    pass


class DuplicateEdgeError(EdgeError):
    pass


class NodeIdOutOfRangeError(EdgeError, IndexError):
    pass


class Dag:
    """Immutable directed acyclic graph over nodes 0..m-1.

    ``edges`` may be any iterable of (parent, child) pairs or an (E, 2)
    integer array.  All derived structure is computed once and shared;
    instances are safe to use from multiple threads, and every array is
    read-only.

    ``depth`` holds longest-path depths (roots have 1), ``topo_order`` the
    nodes by (depth, id).  ``edge_parent`` / ``edge_child`` list the edges
    by (child depth, child, parent), those into depth d at positions
    ``level_ptr[d - 1]:level_ptr[d]``, and the nodes of depth d are
    ``topo_order[node_ptr[d - 1]:node_ptr[d]]``; node v's parents,
    ascending, are
    ``edge_parent[parent_start[v]:parent_start[v] + in_degree[v]]``.  The
    child CSR lists the edges by (parent, child): v's children are
    ``child_indices[child_indptr[v]:child_indptr[v + 1]]``.  ``roots`` and
    ``leaves`` are ascending id arrays.

    ``children`` / ``parents`` (per-node tuples of ids) and ``edges`` (a
    frozenset of pairs) are lazily built, cached views of these arrays.
    """

    def __init__(self, m, edges):
        _check_int(m, "node count", 0, DagError)
        self.m = m = int(m)
        parent, child = _edge_arrays(edges)
        order = check_edges(m, parent, child)
        parent, child = parent[order], child[order]
        n_kids = np.bincount(parent, minlength=m)
        in_degree = np.bincount(child, minlength=m)
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(n_kids, out=indptr[1:])
        self.child_indptr = _read_only(indptr)
        self.child_indices = _read_only(child)
        depth = self._levels(parent, n_kids, in_degree)

        # the edges by (child, parent), then stably by child depth: the
        # keys are distinct, and the depths narrow enough to radix sort
        by_child = np.argsort(child * m + parent)
        narrow = _narrow(depth)
        by_depth = by_child[np.argsort(narrow[child[by_child]],
                                       kind="stable")]
        self.depth = _read_only(depth)
        self.edge_parent = _read_only(parent[by_depth])
        self.edge_child = _read_only(child[by_depth])
        topo = np.argsort(narrow, kind="stable")
        self.topo_order = _read_only(topo)
        self.node_ptr = _read_only(np.cumsum(np.bincount(depth, minlength=1)))
        # the edges into the nodes before each position of topo_order
        before = np.concatenate(([0], np.cumsum(in_degree[topo])))
        self.level_ptr = _read_only(before[self.node_ptr])
        start = np.empty(m, dtype=np.intp)
        start[topo] = before[:-1]
        self.parent_start = _read_only(start)
        self.in_degree = _read_only(in_degree)
        self.roots = _read_only(np.flatnonzero(in_degree == 0))
        self.leaves = _read_only(np.flatnonzero(n_kids == 0))

    def _levels(self, parent, n_kids, in_degree):
        """Kahn's algorithm a whole level per round over the child CSR: the
        round that removes a node is its depth."""
        starts, kids = self.child_indptr[:-1], self.child_indices
        indeg = in_degree.copy()
        depth = np.zeros(self.m, dtype=np.intp)
        level, d = np.flatnonzero(indeg == 0), 0
        while level.size:
            d += 1
            depth[level] = d
            hit, times = np.unique(
                kids[_segments(starts[level], n_kids[level])],
                return_counts=True)
            indeg[hit] -= times
            level = hit[indeg[hit] == 0]
        if indeg.any():
            # every node left unordered has an unordered parent: walking to
            # the smallest such parent must revisit a node, which is on a
            # cycle
            left = indeg[parent] > 0
            step = np.full(self.m, self.m, dtype=np.intp)
            np.minimum.at(step, kids[left], parent[left])
            v, seen = int(np.flatnonzero(indeg)[0]), set()
            while v not in seen:
                seen.add(v)
                v = int(step[v])
            raise CycleDetectedError(
                f"edge set contains a directed cycle through node {v}", node=v)
        return depth

    @cached_property
    def children(self):
        """Per-node tuple of children, ascending."""
        ptr, kids = self.child_indptr.tolist(), self.child_indices.tolist()
        return tuple(tuple(kids[a:b]) for a, b in zip(ptr, ptr[1:]))

    @cached_property
    def parents(self):
        """Per-node tuple of parents, ascending."""
        par = self.edge_parent.tolist()
        return tuple(tuple(par[a:a + n]) for a, n in
                     zip(self.parent_start.tolist(), self.in_degree.tolist()))

    @cached_property
    def edges(self):
        """The (parent, child) pairs."""
        return frozenset(zip(self.edge_parent.tolist(),
                             self.edge_child.tolist()))

    @cached_property
    def ancestor_masks(self):
        """Per-node bitmask of strict ancestors (bit i set <=> i is an
        ancestor)."""
        masks = [0] * self.m
        for v in self.topo_order.tolist():
            acc = 0
            for p in self.parents[v]:
                acc |= masks[p] | (1 << p)
            masks[v] = acc
        return masks

    @cached_property
    def descendant_masks(self):
        """Per-node bitmask of strict descendants."""
        masks = [0] * self.m
        for v in reversed(self.topo_order.tolist()):
            acc = 0
            for c in self.children[v]:
                acc |= masks[c] | (1 << c)
            masks[v] = acc
        return masks

    @cached_property
    def descendant_closure(self):
        """Each node and its strict descendants in CSR form: ``(indptr,
        indices)``.  Row v, ``indices[indptr[v]:indptr[v + 1]]``, is v, then
        its strict descendants ascending: the segment smoothing combines.

        The descendants are built a depth level at a time, deepest first:
        every child of a depth-d node is deeper, so its descendants are
        ready when level d is built.  A level's descendants are its nodes'
        children and the children's descendants (one gather), keyed
        ``owner * m + node`` and put in order, without repeats, by one
        sort.  The keys are int32 when they all fit (``level.size * m <=
        _INT32_KEYS``), int64 otherwise; each owner's segment is found by
        one sorted search.  The levels' descendants are appended to one
        int32 buffer, and at the end scattered into node order, each row
        after its node.

        ``indptr`` is intp and ``indices`` int32 (node ids lie below
        2**31); both arrays are read-only.
        """
        m, ptr = self.m, self.child_indptr
        n_kids = np.diff(ptr)
        # v's descendants are store[start[v]:start[v] + count[v]]
        start = np.zeros(m, dtype=np.intp)
        count = np.zeros(m, dtype=np.intp)
        topo, bounds = self.topo_order, self.node_ptr
        levels = [topo[a:b][n_kids[topo[a:b]] > 0]
                  for a, b in zip(bounds[:-1], bounds[1:])]
        store, end, spans = np.empty(m, dtype=np.int32), 0, []
        for level in reversed(levels):
            if not level.size:
                continue
            width = np.int32 if level.size * m <= _INT32_KEYS else np.int64
            kids = self.child_indices[_segments(ptr[level], n_kids[level])]
            rows = count[kids]
            offset = np.arange(level.size, dtype=width) * m
            owner = np.repeat(offset, n_kids[level])
            # the keys of the children's rows, then of the children
            n = int(rows.sum())
            keys = np.empty(n + kids.size, dtype=width)
            keys[:n] = store[_segments(start[kids], rows)]
            keys[:n] += np.repeat(owner, rows)
            np.add(owner, kids, out=keys[n:])
            del kids, rows, owner
            keys = _sorted_unique(keys)
            # each owner's keys lie in [owner * m, (owner + 1) * m)
            sizes = np.diff(np.searchsorted(keys, offset), append=keys.size)
            if end + keys.size > store.size:
                grown = np.empty(max(2 * store.size, end + keys.size),
                                 dtype=np.int32)
                grown[:end] = store[:end]
                store = grown
            np.subtract(keys, np.repeat(offset, sizes),
                        out=store[end:end + keys.size])
            count[level] = sizes
            start[level] = end + np.cumsum(sizes) - sizes
            spans.append((level, end, end + keys.size))
            end += keys.size
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(count + 1, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int32)
        indices[indptr[:-1]] = np.arange(m)
        for level, a, b in spans:
            indices[_segments(indptr[level] + 1, count[level])] = store[a:b]
        return _read_only(indptr), _read_only(indices)

    def descendant_indices(self, node):
        """Sorted strict descendants of ``node``: a view of its row of
        ``descendant_closure`` after the node itself."""
        _check_node(self.m, node)
        indptr, indices = self.descendant_closure
        return indices[indptr[node] + 1:indptr[node + 1]]

    def __repr__(self):
        return f"Dag(m={self.m}, edges={self.edge_parent.size})"


def _edge_arrays(edges):
    """(parent, child) intp arrays from an (E, 2) integer array or an
    iterable of pairs of ids, each an integer by ``_is_int``."""
    pairs = (edges if isinstance(edges, np.ndarray)
             else np.array(list(edges), dtype=object))
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.intp)
    # without bounds ``_is_int`` reads only the type: one id per type does
    ints = pairs.dtype.kind in "iu" or pairs.dtype == object and all(
        map(_is_int, {type(v): v for v in pairs.flat}.values()))
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not ints:
        raise DagError("edges must be (parent, child) pairs of integer ids")
    pairs = pairs.astype(np.intp, copy=False)
    return pairs[:, 0], pairs[:, 1]


def repeats(keys):
    """Mask of the entries of ``keys`` equal to an earlier entry, and the
    stable order that sorts ``keys``.  numpy's default sort gives that
    order when the keys are distinct; only keys that repeat are sorted
    again, stably, so that each first entry keeps its place."""
    order = np.argsort(keys)
    same = keys[order[1:]] == keys[order[:-1]]
    if same.any():
        order = np.argsort(keys, kind="stable")
        same = keys[order[1:]] == keys[order[:-1]]
    out = np.zeros(keys.size, dtype=bool)
    out[order[1:]] = same
    return out, order


def check_edges(m, parent, child):
    """Validate edges (parent[i], child[i]) over nodes [0, m) as a loop
    over them in order would: the first faulty edge raises, checked for an
    id out of range, then a self-loop, then a repeat of an earlier edge.
    The error's ``index`` is the edge's position.  Returns the permutation
    that sorts the edges by (parent, child)."""
    inside = (parent >= 0) & (parent < m) & (child >= 0) & (child < m)
    # out-of-range edges get keys of their own, below every valid key
    repeat, order = repeats(np.where(inside, parent * m + child,
                                     -1 - np.arange(parent.size)))
    bad = ~inside | (parent == child) | repeat
    if bad.any():
        i = int(np.argmax(bad))
        a, b = int(parent[i]), int(child[i])
        if not inside[i]:
            raise NodeIdOutOfRangeError(f"edge ({a}, {b}) outside [0, {m})", i)
        if a == b:
            raise SelfLoopError(f"self-loop at node {a}", i)
        raise DuplicateEdgeError(f"duplicate edge {(a, b)}", i)
    return order


def _sorted_unique(keys):
    """The distinct values of an integer array, ascending, by one in-place
    sort of ``keys`` and an adjacent-compare mask (``np.unique`` hashes
    integer keys, which is several times slower)."""
    keys.sort()
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return np.compress(keep, keys)


def _narrow(values):
    """Non-negative integers as the smallest unsigned type that holds them
    all: a stable argsort of 8- or 16-bit keys is a radix sort."""
    return values.astype(np.min_scalar_type(int(values.max(initial=0))))


def _segments(start, count):
    """Positions start[i] .. start[i] + count[i] - 1, concatenated over i."""
    out = np.repeat(start + count - np.cumsum(count), count)
    out += np.arange(out.size)
    return out


def _read_only(array):
    array.flags.writeable = False
    return array


def build_dag(m, edges):
    """Validate and build a Dag; rejects an m or ids that are not integers,
    ids outside [0, m), self-loops, duplicates and cycles."""
    return Dag(m, edges)


@dataclass(frozen=True)
class DepthIndex:
    """Node depths (roots have depth 1) plus the per-depth level sets."""

    depth: np.ndarray
    levels: dict
    max_depth: int


def compute_depths(dag):
    """Longest-path depth per node, from the Dag's level pass, and the nodes
    of each depth in ascending order (read-only views of ``topo_order``)."""
    topo, ptr = dag.topo_order, dag.node_ptr
    levels = {d: topo[ptr[d - 1]:ptr[d]] for d in range(1, ptr.size)}
    return DepthIndex(depth=dag.depth, levels=levels, max_depth=ptr.size - 1)


def fold_edges(ufunc, target, heads, source, tails):
    """``ufunc.at(target, heads, source[tails])`` on each row: ``target``
    and ``source`` are (m,) vectors or C-contiguous (R, m) blocks, whose
    rows fold on their own through one flat ``ufunc.at`` with each row's
    offset added to the node ids (``ufunc.at`` over a 2-D index is several
    times slower)."""
    if target.ndim == 2:
        if not (target.flags.c_contiguous and source.flags.c_contiguous):
            raise ValueError("blocks to fold must be C-contiguous")
        rows = np.arange(0, target.size, target.shape[1])[:, None]
        heads, tails = (heads + rows).ravel(), (tails + rows).ravel()
        target, source = target.reshape(-1), source.reshape(-1)
    ufunc.at(target, heads, source[tails])


def level_sweep(dag, ufunc, values, upward=False):
    """Fold ``values`` in place along the edges, a level at a time: downward
    (parents first) each node takes ``ufunc`` of itself and its parents,
    upward (children first) of itself and its children.  ``values`` is an
    (m,) vector or a C-contiguous (R, m) block whose rows fold on their
    own.  Returns values."""
    ptr, tail, head = dag.level_ptr, dag.edge_parent, dag.edge_child
    if upward:
        tail, head = head, tail
    depths = range(2, ptr.size)
    for d in reversed(depths) if upward else depths:
        edges = slice(ptr[d - 1], ptr[d])
        fold_edges(ufunc, values, head[edges], values, tail[edges])
    return values


def _reachable(adjacency, start, count, node):
    """Nodes reachable from ``node`` in one or more steps, where node v
    steps to ``adjacency[start[v]:start[v] + count[v]]`` (breadth first)."""
    seen = np.zeros(count.size, dtype=bool)
    frontier = np.array([node])
    while frontier.size:
        step = adjacency[_segments(start[frontier], count[frontier])]
        frontier = _sorted_unique(step[~seen[step]])
        seen[frontier] = True
    return frozenset(np.flatnonzero(seen).tolist())


def ancestors(dag, node):
    """Strict ancestors of ``node`` (transitive closure along reversed
    edges)."""
    _check_node(dag.m, node)
    return _reachable(dag.edge_parent, dag.parent_start, dag.in_degree, node)


def descendants(dag, node):
    """Strict descendants of ``node``."""
    _check_node(dag.m, node)
    ptr = dag.child_indptr
    return _reachable(dag.child_indices, ptr[:-1], np.diff(ptr), node)


@dataclass(frozen=True)
class GroupIndex:
    """Sibling groups as arrays: group g has ``group_parent[g]`` (-1 for the
    roots' dummy parent), ``group_depth[g]`` and ``group_size[g]``, and
    membership k puts node ``mem_node[k]`` in group ``mem_group[k]``.
    ``n_d[d]`` (groups at depth d) and ``depth_sizes[d]`` (|H_d|) are
    integer arrays over depths 0..max_depth, 0 at depth 0."""

    mem_node: np.ndarray
    mem_group: np.ndarray
    group_parent: np.ndarray
    group_depth: np.ndarray
    group_size: np.ndarray
    n_d: np.ndarray
    depth_sizes: np.ndarray


def group_index(dag, depths):
    """Group the nodes of each depth by shared parent.

    The roots always form a single group under the dummy parent, so n_1 = 1;
    every edge (a, c) makes c a member of a's group at depth(c), so for
    d > 1, n_d counts the nodes (at any shallower depth) with at least one
    child of depth d.  Groups are ordered by (depth, parent) and memberships
    by (group, node); ``depth_sizes`` comes from the Dag's ``node_ptr``.
    """
    # the memberships by (parent, child), roots first: the child CSR's
    # order, which a stable sort by child depth keeps within each depth
    ptr = dag.child_indptr
    parent = np.concatenate([np.full(dag.roots.size, -1),
                             np.repeat(np.arange(dag.m), np.diff(ptr))])
    child = np.concatenate([dag.roots, dag.child_indices])
    order = np.argsort(_narrow(depths.depth)[child], kind="stable")
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
        n_d=n_d, depth_sizes=np.diff(dag.node_ptr, prepend=0))


def is_tree(dag):
    """True iff every non-root node has exactly one parent."""
    child = dag.edge_child      # each child's edges are adjacent
    return not np.any(child[1:] == child[:-1])


def _canonical_lca_depth(canon, depth, max_depth, a, w):
    """Depth of lca(a[i], w[i]) in the forest ``canon`` (roots map to
    themselves), 0 when the two lie in different trees.  Needs
    depth[w] >= depth[a]; vectorized binary lifting over all pairs."""
    jumps = [canon]
    while (1 << len(jumps)) < max_depth:
        jumps.append(jumps[-1][jumps[-1]])
    gap = depth[w] - depth[a]
    for k, jump in enumerate(jumps):
        w = np.where((gap >> k) & 1 == 1, jump[w], w)
    for jump in reversed(jumps):
        ja, jw = jump[a], jump[w]
        move = ja != jw
        a, w = np.where(move, ja, a), np.where(move, jw, w)
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
    # the edges come grouped by child, parents ascending: each child's
    # canonical parent is its first tight edge's
    kids = child[tight]
    first = np.ones(kids.size, dtype=bool)
    np.not_equal(kids[1:], kids[:-1], out=first[1:])
    canon = np.arange(dag.m, dtype=np.intp)
    canon[kids[first]] = parent[tight[first]]
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

    A set is ancestor-closed iff it is parent-closed, so only the edges
    into non-null nodes are looked at (``hereditary``).
    """
    return hereditary(dag, node_mask(dag.m, nonnull))


def _is_int(value, low=None, high=None):
    """The integer rule of every id, count and seed: an int or numpy
    integer, not a bool or float, in [low, high), each bound if given."""
    return (isinstance(value, Integral) and not isinstance(value, bool)
            and (low is None or value >= low)
            and (high is None or value < high))


def _check_int(value, what, low, error=ValueError):
    """Raise ``error`` naming ``what`` unless ``_is_int(value, low)``: the
    one rule of every count and seed."""
    if not _is_int(value, low):
        raise error(f"{what} must be an integer >= {low}, got {value!r}")


def _check_items(value, what, kind=None):
    """Raise ValueError naming ``what`` unless ``value`` is a non-empty list
    or tuple, and with ``kind``, every item a ``kind``: the one rule of
    every list argument.  Its items are checked by value where they are
    used."""
    if not (isinstance(value, (list, tuple)) and value
            and (kind is None or all(isinstance(v, kind) for v in value))):
        of = "" if kind is None else f" of {kind.__name__}"
        raise ValueError(f"{what}: need a non-empty list or tuple{of}, "
                         f"got {value!r}")


def _is_real(value):
    """The type of every level: a real number that a float can hold, not a
    bool nor an array (an int beyond the largest float is refused here, so
    that no check ends in ``float``'s ``OverflowError``)."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _check_real(value, what, error=ValueError, interval="(0, 1)"):
    """Raise ``error`` naming ``what`` unless ``_is_real(value)`` and it lies
    in ``interval``, written as the message shows it: "(0, 1)", "[0, 1)",
    "[0, 1]", "(0, 1]" or "(0, inf)".  NaN lies in none."""
    low, high = map(float, interval[1:-1].split(", "))
    if not (_is_real(value)
            and (low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high)):
        raise error(f"{what} must be in {interval}, got {value!r}")


def _check_node(m, node):
    """``int(node)`` if ``_is_int(node, 0, m)``, else NodeIdOutOfRangeError."""
    if not _is_int(node, 0, m):
        raise NodeIdOutOfRangeError(
            f"node {node!r} is not an integer id in [0, {m})")
    return int(node)


def node_mask(m, nodes):
    """The boolean (m,) mask of a collection of node ids.  Each id must be
    an int or numpy integer in [0, m), not a bool or float (``_is_int``);
    any other raises NodeIdOutOfRangeError naming it."""
    mask = np.zeros(m, dtype=bool)
    mask[[_check_node(m, v) for v in nodes]] = True
    return mask


def hereditary(dag, nonnull):
    """True iff every row of the boolean (m,) or (R, m) mask ``nonnull`` is
    ancestor-closed: no edge leads from a null parent to a non-null child."""
    return not np.any(nonnull[..., dag.edge_child]
                      & ~nonnull[..., dag.edge_parent])
