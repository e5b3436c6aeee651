"""p-value combining functions, all-descendant smoothing, and intersection
p-value construction.

Every combiner maps a block of p-values to a single global-null p-value and
is monotone in each input.  The matrix forms (`*_rows`) combine each row of
an (r, n) array at once, which is what the Monte Carlo validity checks need.
Smoothing and intersection p-values both combine over column segments (a
node with its descendants, or a node's annotated items) through one
kernel, ``combine_segments``, which transforms each entry for Fisher
(log p) and Stouffer (normal quantile) once, not once per segment holding
it, takes every node's raw statistic (a sum, a minimum, an order
statistic or Simes' minimum), and calibrates them one row slab at a time.

Fisher, Stouffer, Simes, Tippett and Bonferroni map a block holding an
exact 0 to exactly 0, whatever else it holds: for Stouffer that includes a
block that also holds a 1, whose z-sum -inf + inf is taken as -inf.  A
valid p-value is 0 with probability 0 under its null, so the rule keeps
every combination superuniform.  Order statistics i >= 2 do not follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dag import _check_int, _check_record, _is_int
from .special import (DomainError, beta_cdf, chisq_survival, normal_cdf,
                      normal_quantile)


class EmptyInputError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass


class AnnotationNotNestedError(ValueError):
    """An edge whose child has an item its parent lacks; ``parent`` and
    ``child`` are the edge's node ids."""

    def __init__(self, message, parent=None, child=None):
        super().__init__(message)
        self.parent = parent
        self.child = child


class EmptyAnnotationError(ValueError):
    """A node without items; ``node`` is its id."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


# Entries per gather in ``combine_segments``: enough segments per combiner
# call to amortise its overhead, few enough to stay in cache.
_GATHER_ENTRIES = 1 << 16
_ABOVE_ZERO, _BELOW_ONE = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class Combiner:
    """A named p-value combining rule.

    kind is one of "fisher", "stouffer", "simes", "orderstat", "bonferroni";
    ``order`` selects the order statistic for "orderstat" (1 = Tippett's
    minimum rule).  When a block has fewer than ``order`` values the order is
    clamped to the block size, so singleton blocks always pass through.
    An unknown kind, or an order that is not an int >= 1, raises ValueError.
    """

    kind: str
    order: int = 1

    def __post_init__(self):
        if self.kind not in ("fisher", "stouffer", "simes", "orderstat",
                             "bonferroni"):
            raise ValueError(f"unknown combiner kind {self.kind!r}")
        _check_int(self.order, "combiner order", 1)

    @classmethod
    def from_name(cls, name):
        if not isinstance(name, str):
            raise ValueError(f"unknown combiner {name!r}")
        name = name.strip().lower()
        if name == "tippett":
            return cls("orderstat", 1)
        if name.startswith("orderstat:"):
            text = name.split(":", 1)[1]
            if not text.strip().isdecimal() or int(text) < 1:
                raise ValueError(f"combiner {name!r}: order statistic index "
                                 f"{text!r} is not an integer >= 1")
            return cls("orderstat", int(text))
        if name in ("fisher", "stouffer", "simes", "bonferroni"):
            return cls(name)
        raise ValueError(f"unknown combiner {name!r}")

    @property
    def name(self):
        if self.kind == "orderstat":
            return "tippett" if self.order == 1 else f"orderstat:{self.order}"
        return self.kind


def validate_pvalues(values):
    """A float array of ``values``, of any shape, after checking that its
    entries lie in [0, 1], NaN excluded (else DomainError)."""
    arr = np.asarray(values, dtype=float)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("p-values must lie in [0, 1] and not be NaN")
    return arr


def validate_pvector(values, m=None):
    """The p-vector contract of every call taking one p-value per node or
    item: ``validate_pvalues``, 1-D (a block raises ValueError naming its
    shape, never flattened) and of length m if given (LengthMismatchError)."""
    arr = validate_pvalues(values)
    if arr.ndim != 1:
        raise ValueError("need a 1-D sequence of p-values, got an array of "
                         f"shape {arr.shape}")
    if m is not None and arr.size != m:
        raise LengthMismatchError(f"expected {m} p-values, got {arr.size}")
    return arr


def combine_rows(combiner, block):
    """Combine each row of an (r, n) array of p-values; returns shape (r,)."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] == 0:
        raise EmptyInputError("need a nonempty 2-D block of p-values")
    n = block.shape[1]
    kind = combiner.kind

    if kind == "fisher":
        return chisq_survival(-2.0 * np.sum(_terms(kind, block), axis=1),
                              2 * n)

    if kind == "stouffer":
        with np.errstate(invalid="ignore"):     # -inf + inf is NaN
            z = np.sum(_terms(kind, block), axis=1)
        z[np.isnan(z)] = -np.inf                # a 0 wins over a 1
        return normal_cdf(z / math.sqrt(n))

    if kind == "simes":
        srt = np.sort(block, axis=1)
        ranks = np.arange(1, n + 1, dtype=float)
        return np.clip(np.min(srt * (n / ranks), axis=1), 0.0, 1.0)

    if kind == "orderstat":
        i = min(combiner.order, n)
        if i == 1:
            stat = np.min(block, axis=1)
        else:
            stat = np.sort(block, axis=1)[:, i - 1]
        return np.atleast_1d(beta_cdf(stat, i, n - i + 1))

    return np.minimum(1.0, n * np.min(block, axis=1))      # bonferroni


def _terms(kind, block):
    """The per-entry terms whose row sums Fisher and Stouffer calibrate:
    log p, or the normal quantile of p, which is -inf at a 0 and +inf at a
    1.  A Stouffer sum over both is NaN, and its callers set it to -inf, so
    that a 0 gives exactly 0 as it does for Fisher.  Applied element by
    element, so an entry's term never depends on the array it sits in."""
    if kind == "fisher":
        with np.errstate(divide="ignore"):
            return np.log(block)
    terms = normal_quantile(np.clip(block, _ABOVE_ZERO, _BELOW_ONE))
    terms[block == 0.0], terms[block == 1.0] = -np.inf, np.inf
    return terms


def combine(combiner, pvalues):
    """Combine a nonempty sequence of p-values into one p-value.

    The conventions for boundary inputs: Fisher, Stouffer, Simes, Tippett
    and Bonferroni return exactly 0 when any input is exactly 0 (for
    Fisher and Stouffer the limit of their statistic).  Stouffer returns
    exactly 1 for a block holding a 1 and no 0, and takes a block holding
    both as 0.

    Raises:
        EmptyInputError: for an empty sequence.
        ValueError: naming the shape, for input that is not 1-D.
    """
    _check_record(combiner, "combiner", Combiner)
    arr = validate_pvector(pvalues)
    if arr.size == 0:
        raise EmptyInputError("need at least one p-value")
    return float(combine_rows(combiner, arr[None, :])[0])


def _chunks(nodes, size):
    return (nodes[i:i + size] for i in range(0, nodes.size, size))


def _runs(starts, ends, budget):
    """Bounds ``[0, b_1, .., len(starts)]`` cutting segments sorted by their
    start into runs that span at most ``budget`` entries; a longer segment
    is a run of its own."""
    bounds = [0]
    while bounds[-1] < starts.size:
        s = bounds[-1]
        t = int(np.searchsorted(ends, starts[s] + budget, "right"))
        bounds.append(max(s + 1, t))
    return bounds


def _segment_minima(slab, out, nodes, indptr, indices):
    """Write each node's segment minimum in every row of ``slab`` to
    ``out``.  The distinct segments are taken in CSR order, in runs whose
    gathered spans hold at most ``_GATHER_ENTRIES`` entries over the slab's
    rows (a longer segment alone): each run's span ``indices[lo:hi]`` is
    gathered once and reduced by one ``np.minimum.reduceat`` cut at every
    segment's start and end, and the minima of the gaps between segments
    (other nodes' rows) are dropped."""
    rank = np.argsort(indptr[nodes], kind="stable")
    starts = indptr[nodes[rank]]
    first = np.diff(starts, prepend=-1) != 0        # repeated nodes once
    starts, ends = starts[first], indptr[nodes[rank[first]] + 1]
    minima = np.empty((slab.shape[0], starts.size))
    bounds = _runs(starts, ends, max(1, _GATHER_ENTRIES // slab.shape[0]))
    for s, t in zip(bounds, bounds[1:]):
        lo, hi = int(starts[s]), int(ends[t - 1])
        cuts = np.empty(2 * (t - s) - 1, dtype=np.intp)
        cuts[0::2], cuts[1::2] = starts[s:t] - lo, ends[s:t - 1] - lo
        # indexing, not np.take, which copies a read-only index array
        minima[:, s:t] = np.minimum.reduceat(slab[:, indices[lo:hi]], cuts,
                                             axis=1)[:, ::2]
    out[:, rank] = minima[:, np.cumsum(first) - 1]


def combine_segments(combiner, block, nodes, indptr, indices):
    """Combine each row of ``block`` over one column segment per node.

    Node v's segment is its CSR row ``indices[indptr[v]:indptr[v + 1]]``,
    combined as given.  Returns an (r, len(nodes)) array whose entry (i, j)
    combines ``block[i, segment]`` for v = ``nodes[j]``, bit for bit as
    ``combine_rows`` does on that one row and segment, but for the sign of
    a zero Bonferroni value: that is always +0.0 here, while ``np.min``
    may return either of 0.0 and -0.0, depending on where they sit.

    The block is combined one slab of at most ``_GATHER_ENTRIES`` entries
    (never less than one row) at a time, in two steps: a raw statistic per
    row and node, then one calibration of the whole slab with each node's
    segment size n.

    - Fisher and Stouffer: the sum of the slab's ``_terms`` over the
      segment, calibrated by ``chisq_survival`` with one df per node (so its
      series runs once over all sizes) and by ``normal_cdf``, after a
      Stouffer sum over a 0 and a 1 (NaN) is set to -inf.
    - Bonferroni and Tippett: the segment's minimum, taken by
      ``_segment_minima`` with no size groups, calibrated as
      ``min(1, n * stat)`` and by ``beta_cdf(stat, 1, n)``.
    - Order statistic i: the min(i, n)-th smallest entry, calibrated by
      ``beta_cdf`` with per-node shapes.
    - Simes: min_k p_(k) n / k over the sorted segment, clipped to [0, 1].

    Sums, order statistics and Simes take size groups: nodes are grouped by
    segment size n, largest first, and each group is gathered row-major
    (each row's segments contiguous, as at r = 1: numpy sums a contiguous
    row pairwise but a strided one left to right) into (g, n) matrices of
    at most ``_GATHER_ENTRIES`` entries (never less than one node).
    Minima gather runs of whole nodes of at most ``_GATHER_ENTRIES``
    entries across the slab (a larger segment alone); a minimum does not
    depend on the order of its entries.

    Raises:
        EmptyInputError: if some node's segment is empty.
    """
    r, kind = block.shape[0], combiner.kind
    sizes = indptr[nodes + 1] - indptr[nodes]
    if (sizes < 1).any():
        raise EmptyInputError("every node needs a nonempty segment")
    out = np.empty((r, nodes.size))
    step = max(1, _GATHER_ENTRIES // max(block.shape[1], 1))
    minimum = kind == "bonferroni" or combiner.name == "tippett"
    if not minimum:
        rank = np.argsort(-sizes, kind="stable")
        starts = np.flatnonzero(np.diff(sizes[rank], prepend=-1))
        groups = list(zip(np.split(rank, starts[1:]),
                          sizes[rank][starts].tolist()))
    for a in range(0, r, step):
        slab, slab_out = block[a:a + step], out[a:a + step]
        if kind in ("fisher", "stouffer"):
            slab = _terms(kind, slab)
        if minimum:
            _segment_minima(slab, slab_out, nodes, indptr, indices)
        else:
            _grouped_stats(combiner, slab, slab_out, nodes, indptr, indices,
                           groups)
        if kind == "fisher":
            slab_out[:] = chisq_survival(-2.0 * slab_out.T, 2 * sizes).T
        elif kind == "stouffer":
            slab_out[np.isnan(slab_out)] = -np.inf      # a 0 wins over a 1
            slab_out[:] = normal_cdf(slab_out / np.sqrt(sizes))
        elif kind == "bonferroni":
            np.minimum(1.0, sizes * slab_out, out=slab_out)
            slab_out += 0.0             # a zero minimum as +0.0, see above
        elif kind == "orderstat":
            i = np.minimum(combiner.order, sizes)
            slab_out[:] = beta_cdf(slab_out, i, sizes - i + 1)
        else:                                               # simes
            np.clip(slab_out, 0.0, 1.0, out=slab_out)
    return out


def _grouped_stats(combiner, slab, out, nodes, indptr, indices, groups):
    """Write ``_group_stat`` of every row of ``slab`` and node to ``out``,
    one size group at a time, gathered in chunks of whole nodes."""
    k = slab.shape[0]
    for group, n in groups:
        width = np.arange(n)
        for chunk in _chunks(group, max(1, _GATHER_ENTRIES // (k * n))):
            cols = indices[indptr[nodes[chunk]][:, None] + width]
            res = _group_stat(combiner, _gather_rows(slab, cols))
            out[:, chunk] = res.reshape(k, chunk.size)


def _group_stat(combiner, rows):
    """Each gathered row's raw statistic: the sum of its terms for Fisher
    and Stouffer, its min(order, n)-th smallest entry for an order
    statistic, and min_k p_(k) n / k for Simes.  ``rows`` is
    ``_gather_rows``' own copy, so the order statistics and Simes sort
    it in place, and Simes scales it in place."""
    kind, n = combiner.kind, rows.shape[1]
    if kind in ("fisher", "stouffer"):
        with np.errstate(invalid="ignore"):     # -inf + inf is NaN
            return np.sum(rows, axis=1)
    rows.sort(axis=1)
    if kind == "orderstat":
        return rows[:, min(combiner.order, n) - 1]
    rows *= n / np.arange(1, n + 1, dtype=float)
    return np.min(rows, axis=1)


def _gather_rows(block, cols):
    """The rows ``block[i, cols[j]]`` for every row i and node j, stacked
    row-major into a new C-ordered (r * g, n) matrix."""
    return np.take(block, cols, axis=1).reshape(-1, cols.shape[1])


def inner_segments(dag):
    """The nodes with descendants, ascending (those whose closure row is
    longer than one), and the closure ``(indptr, indices)`` whose rows are
    their smoothing segments.  Every other node is a leaf, whose smoothed
    value is its own."""
    indptr, indices = dag.descendant_closure
    return np.flatnonzero(np.diff(indptr) > 1), indptr, indices


def smooth_rows(dag, block, combiner):
    """All-descendant smoothing of each row of an (r, m) block of p-values,
    which are not checked.

    Node v's value becomes the combination of its row entries at
    ``[v, *descendants ascending]``, v's row of ``dag.descendant_closure``;
    leaves keep their own.  ``combine_segments`` combines the
    ``inner_segments`` into a compact (r, #inner) array, which is scattered
    once into a copy of the block.  Each row of the result is bit-identical
    to smoothing that row alone, node by node, so a block may be smoothed
    in row chunks.  ``simulate.superuniformity_check`` takes the inner
    nodes' values the same way, one row chunk of its null block at a time,
    and never builds the smoothed copy.
    """
    inner, indptr, indices = inner_segments(dag)
    res = combine_segments(combiner, block, inner, indptr, indices)
    out = block.copy()
    out[:, inner] = res
    return out


def smooth_all_descendants(dag, pvalues, combiner):
    """Replace each node's p-value by the combination of itself with all of
    its descendants; nodes without descendants keep their own p-value.

    ``pvalues`` is one (m,) vector or an (R, m) block of them, checked and
    then smoothed by ``smooth_rows``.
    """
    _check_record(combiner, "combiner", Combiner)
    arr = validate_pvalues(pvalues)
    if arr.ndim not in (1, 2) or arr.shape[-1] != dag.m:
        raise LengthMismatchError(f"expected ({dag.m},) or (R, {dag.m}) "
                                  f"p-values, got shape {arr.shape}")
    return smooth_rows(dag, np.atleast_2d(arr), combiner).reshape(arr.shape)


def intersection_dag_pvalues(dag, annotations, item_pvalues, combiner):
    """Node p-values for an intersection DAG from item-level p-values.

    ``annotations[i]`` is the set of item indices node i's hypothesis
    intersects over, each an integer (not a bool); every edge must satisfy
    the nesting A_child <= A_parent.  Edges are checked in the Dag's stored
    order, so an input with several violations always names the same one.
    """
    _check_record(combiner, "combiner", Combiner)
    items = validate_pvector(item_pvalues)
    if len(annotations) != dag.m:
        raise LengthMismatchError(
            f"expected {dag.m} annotation sets, got {len(annotations)}")
    sets = [frozenset(a) for a in annotations]
    for i, a in enumerate(sets):
        if not a:
            raise EmptyAnnotationError(
                f"node {i} has an empty annotation set", node=i)
        for j in a:
            if not _is_int(j, 0, items.size):
                raise DomainError(f"node {i} references unknown item {j!r}")
    for parent, child in zip(dag.edge_parent.tolist(),
                             dag.edge_child.tolist()):
        if not sets[child] <= sets[parent]:
            raise AnnotationNotNestedError(
                f"items of node {child} not contained in its parent {parent}",
                parent=parent, child=child)
    rows = [sorted(a) for a in sets]
    indptr = np.zeros(dag.m + 1, dtype=np.intp)
    np.cumsum([len(a) for a in rows], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.intp,
                          count=int(indptr[-1]))
    return combine_segments(combiner, items[None, :],
                            np.arange(dag.m, dtype=np.intp), indptr,
                            indices)[0]
