"""p-value combining functions, all-descendant smoothing, and intersection
p-value construction.

Every combiner maps a block of p-values to a single global-null p-value and
is monotone in each input.  The matrix forms (`*_rows`) combine each row of
an (r, n) array at once, which is what the Monte Carlo validity checks need.
Smoothing and intersection p-values both combine over column segments (a
node with its descendants, or a node's annotated items) through one
size-grouped kernel, ``combine_segments``, which transforms each entry for
Fisher (log p) and Stouffer (normal quantile) once, not once per segment
holding it, and calibrates both sums after the pass over the segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .special import DomainError, beta_cdf, chisq_survival, normal_cdf, normal_quantile


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


class UndefinedSegmentError(DomainError):
    """Stouffer's combination is undefined on a node's segment because it
    holds both a zero and a one; ``node`` is the node's id."""

    def __init__(self, node):
        super().__init__(f"Stouffer is undefined at node {node}: its block"
                         " holds both a zero and a one")
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
    """

    kind: str
    order: int = 1

    @classmethod
    def from_name(cls, name):
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
    """Return a float array after checking entries lie in [0, 1] (no NaN)."""
    arr = np.asarray(values, dtype=float)
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):
        raise DomainError("p-values must lie in [0, 1] and not be NaN")
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
        zeros = np.any(block == 0.0, axis=1)
        ones = np.any(block == 1.0, axis=1)
        if np.any(zeros & ones):
            raise DomainError("Stouffer is undefined when a block has both a"
                              " zero and a one")
        z = np.sum(_terms(kind, block), axis=1) / math.sqrt(n)
        return normal_cdf(np.where(zeros, -np.inf, np.where(ones, np.inf, z)))

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

    if kind == "bonferroni":
        return np.minimum(1.0, n * np.min(block, axis=1))

    raise ValueError(f"unknown combiner kind {combiner.kind!r}")


def _terms(kind, block):
    """The per-entry terms whose row sums Fisher and Stouffer calibrate:
    log p, or the normal quantile of p clipped into the open unit interval.
    Applied element by element, so an entry's term never depends on the
    array it sits in."""
    if kind == "fisher":
        with np.errstate(divide="ignore"):
            return np.log(block)
    return normal_quantile(np.clip(block, _ABOVE_ZERO, _BELOW_ONE))


def combine(combiner, pvalues):
    """Combine a nonempty sequence of p-values into one p-value.

    The conventions for boundary inputs: Fisher returns 0 when any input is
    exactly 0 (the limit of the chi-square statistic); Stouffer maps an
    all-finite block through the z-sum and propagates hard zeros/ones as
    limits, raising DomainError only for the genuinely undefined mixed case.
    """
    arr = validate_pvalues(pvalues)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInputError("need at least one p-value")
    return float(combine_rows(combiner, arr[None, :])[0])


def _chunks(nodes, size):
    return (nodes[i:i + size] for i in range(0, nodes.size, size))


def combine_segments(combiner, block, nodes, indptr, indices, lead):
    """Combine each row of ``block`` over one column segment per node.

    Node v's segment is ``indices[indptr[v]:indptr[v + 1]]``, preceded by v
    itself when ``lead`` is true.  Returns an (r, len(nodes)) array whose
    entry (i, j) combines ``block[i, segment]`` for v = ``nodes[j]``, bit
    for bit as ``combine_rows`` does on that one row and segment.

    Fisher and Stouffer first apply their per-entry term (``_terms``) to
    every entry of the block once, a bounded number of rows at a time,
    and their segments then gather and sum terms (Stouffer's are -inf at a
    0 and +inf at a 1); the other combiners gather raw p-values.  Nodes are
    grouped by segment size n, largest first, and each group is gathered
    row-major (each row's segments contiguous, as at r = 1: numpy sums a
    contiguous row pairwise but a strided one left to right) into (g, n)
    matrices of at most ``_GATHER_ENTRIES`` entries (never less than one
    node).  The sums wait in the output and are calibrated after the pass:
    Fisher's by ``chisq_survival`` with one df per node, so its series runs
    once over all sizes, and Stouffer's by ``normal_cdf``.

    Raises:
        UndefinedSegmentError: naming the smallest node whose Stouffer
            segment holds both a zero and a one in some row.
    """
    r, lead, kind = block.shape[0], int(lead), combiner.kind
    sizes = indptr[nodes + 1] - indptr[nodes] + lead
    order = np.argsort(-sizes, kind="stable")
    starts = np.flatnonzero(np.diff(sizes[order], prepend=-1))
    if kind in ("fisher", "stouffer"):
        terms = _block_terms(kind, block)
    out = np.empty((r, nodes.size))
    for group, n in zip(np.split(order, starts[1:]),
                        sizes[order][starts].tolist()):
        width = np.arange(n - lead)
        for chunk in _chunks(group, max(1, _GATHER_ENTRIES // max(r * n, 1))):
            at = nodes[chunk]
            cols = indices[indptr[at][:, None] + width]
            if lead:
                cols = np.column_stack((at, cols))
            if kind in ("fisher", "stouffer"):
                with np.errstate(invalid="ignore"):     # -inf + inf is NaN
                    res = np.sum(_gather_rows(terms, cols), axis=1)
            else:
                res = combine_rows(combiner, _gather_rows(block, cols))
            out[:, chunk] = res.reshape(r, chunk.size)
    if kind in ("fisher", "stouffer"):
        # the sums wait in ``out``; the terms are no longer needed
        del terms
        if kind == "stouffer" and np.isnan(out).any():
            undefined = nodes[np.isnan(out).any(axis=0)]
            raise UndefinedSegmentError(int(undefined.min()))
        step = max(1, _GATHER_ENTRIES // max(r, 1))
        for a in range(0, nodes.size, step):
            sums, n = out[:, a:a + step], sizes[a:a + step]
            out[:, a:a + step] = (
                chisq_survival(np.ascontiguousarray(-2.0 * sums.T), 2 * n).T
                if kind == "fisher" else normal_cdf(sums / np.sqrt(n)))
    return out


def _block_terms(kind, block):
    """``_terms`` of every entry of ``block`` into one buffer, at most
    ``_GATHER_ENTRIES`` entries (never less than one row) at a time; for
    Stouffer, -inf at a 0 and +inf at a 1 (so a sum over both is NaN)."""
    terms = np.empty(block.shape)
    step = max(1, _GATHER_ENTRIES // max(block.shape[1], 1))
    for a in range(0, block.shape[0], step):
        rows = np.ascontiguousarray(block[a:a + step])
        t = _terms(kind, rows)
        if kind == "stouffer":
            t[rows == 0.0], t[rows == 1.0] = -np.inf, np.inf
        terms[a:a + step] = t
    return terms


def _gather_rows(block, cols):
    """The rows ``block[i, cols[j]]`` for every row i and node j, stacked
    row-major into a C-ordered (r * g, n) matrix."""
    return np.take(block, cols, axis=1).reshape(-1, cols.shape[1])


def smooth_rows(dag, block, combiner):
    """All-descendant smoothing of each row of an (r, m) block of p-values,
    which are not checked.

    Node v's value becomes the combination of its row entries at
    ``[v, *descendants ascending]`` (``dag.descendant_closure``); leaves keep
    their own.  ``combine_segments`` combines the inner nodes into a
    compact (r, #inner) array, which is scattered once into a copy of the
    block (after Fisher's and Stouffer's term buffer has been released).
    Each row of the result is bit-identical to smoothing that row alone,
    node by node.

    Raises:
        UndefinedSegmentError: for Stouffer, naming the smallest node whose
            block holds both a zero and a one in some row.
    """
    indptr, indices = dag.descendant_closure
    inner = np.flatnonzero(np.diff(indptr))
    res = combine_segments(combiner, block, inner, indptr, indices, lead=True)
    out = block.copy()
    out[:, inner] = res
    return out


def smooth_all_descendants(dag, pvalues, combiner):
    """Replace each node's p-value by the combination of itself with all of
    its descendants; nodes without descendants keep their own p-value.

    ``pvalues`` is one (m,) vector or an (R, m) block of them, checked and
    then smoothed by ``smooth_rows``.
    """
    arr = validate_pvalues(pvalues)
    if arr.ndim not in (1, 2) or arr.shape[-1] != dag.m:
        raise LengthMismatchError(f"expected {dag.m} p-values, got "
                                  f"{arr.shape[-1] if arr.ndim else 1}")
    return smooth_rows(dag, np.atleast_2d(arr), combiner).reshape(arr.shape)


def intersection_dag_pvalues(dag, annotations, item_pvalues, combiner):
    """Node p-values for an intersection DAG from item-level p-values.

    ``annotations[i]`` is the set of item indices node i's hypothesis
    intersects over; every edge must satisfy the nesting A_child <= A_parent.
    Edges are checked in the Dag's stored order, so an input with several
    violations always names the same one.
    """
    items = validate_pvalues(item_pvalues)
    if len(annotations) != dag.m:
        raise LengthMismatchError(
            f"expected {dag.m} annotation sets, got {len(annotations)}")
    sets = [frozenset(int(j) for j in a) for a in annotations]
    for i, a in enumerate(sets):
        if not a:
            raise EmptyAnnotationError(
                f"node {i} has an empty annotation set", node=i)
        for j in a:
            if not (0 <= j < items.size):
                raise DomainError(f"node {i} references unknown item {j}")
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
                            np.arange(dag.m, dtype=np.intp), indptr, indices,
                            lead=False)[0]
