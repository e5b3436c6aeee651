"""Rejection-set filters: prune a candidate rejection set to a structured
subset before reporting.

A filter maps (R, p) to U <= R.  The built-in kinds are the trivial filter,
the ancestor-closed ("ds") filter, the outer-nodes filter, and a fixed
threshold screening filter.

On the base sets R(t) = {i: wp_i <= t} that the step-up procedures scan,
every built-in filter keeps node v exactly on one interval of thresholds,
``enter_v <= t < leave_v``.  ``keep_intervals`` computes those intervals
in O(m + E), by ``dag.level_sweep`` for ds and outer; it is the one
production form of each filter, behind the threshold curve and the
reported discovery set.  ``apply_filter`` evaluates a filter on an
arbitrary set with bigint closure masks; it is the independent oracle for
the checks and tests, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combine import LengthMismatchError, validate_pvector
from .dag import (_check_real, _check_record, fold_edges, is_tree,
                  level_sweep, node_mask)
from .special import DomainError


@dataclass(frozen=True)
class FilterSpec:
    """One of "trivial" | "ds" | "outer" | "screen" (with a threshold)."""

    kind: str
    threshold: float = None

    def __post_init__(self):
        if self.kind not in ("trivial", "ds", "outer", "screen"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "screen":
            _check_real(self.threshold, "screening filter threshold",
                        interval="[0, 1]")

    @classmethod
    def from_name(cls, name):
        if not isinstance(name, str):
            raise ValueError(f"unknown filter kind {name!r}")
        name = name.strip().lower()
        if name.startswith("screen:"):
            text = name.split(":", 1)[1]
            try:
                threshold = float(text)
            except ValueError:
                raise ValueError(f"filter {name!r}: screening threshold "
                                 f"{text!r} is not a number") from None
            return cls("screen", threshold)
        return cls(name)

    @property
    def name(self):
        if self.kind == "screen":
            return f"screen:{self.threshold:g}"
        return self.kind


TRIVIAL = FilterSpec("trivial")


def apply_filter(spec, dag, rejected, pvalues=None):
    """Filtered subset of ``rejected`` under ``spec``.

    "ds" keeps nodes whose ancestors are all rejected (largest rooted
    sub-DAG); "outer" keeps nodes with no rejected descendant (the antichain
    of outermost rejections); "screen" intersects with {p <= threshold}.
    """
    _check_record(spec, "filter", FilterSpec)
    mask = node_mask(dag.m, rejected)
    rejected = frozenset(np.flatnonzero(mask).tolist())
    # bit v set iff v is rejected, as in the Dag's closure masks
    r_mask = int.from_bytes(np.packbits(mask, bitorder="little"), "little")
    if spec.kind == "trivial":
        return rejected
    if spec.kind == "ds":
        anc = dag.ancestor_masks
        return frozenset(v for v in rejected if anc[v] & ~r_mask == 0)
    if spec.kind == "outer":
        desc = dag.descendant_masks
        return frozenset(v for v in rejected if desc[v] & r_mask == 0)
    p = validate_pvector(pvalues, dag.m)        # "screen"
    return frozenset(v for v in rejected if p[v] <= spec.threshold)


def is_monotonic(spec, dag):
    """Whether the filter is monotonic on ``dag``: True or False.

    A filter is monotonic when growing the rejection set (and shrinking the
    p-values) never shrinks the filtered count.  The ancestor-closed filter
    is monotonic on any DAG; the outer-nodes filter only on trees; trivial
    and screening filters always.
    """
    _check_record(spec, "filter", FilterSpec)
    return spec.kind != "outer" or bool(is_tree(dag))


def keep_intervals(spec, dag, weighted_p, pvalues=None):
    """Per-node threshold intervals ``(enter, leave)`` of a filter.

    Node v is in F({i: wp_i <= t}, p) exactly when enter_v <= t < leave_v.
    ``leave`` is +inf except under "outer"; "screen" sets enter to +inf for
    nodes with p above its threshold, which are never kept.  The inputs
    are (m,) vectors, or (R, m) blocks whose rows are filtered one by one.
    """
    wp = np.asarray(weighted_p, dtype=float)
    leave = np.full(wp.shape, np.inf)
    if spec.kind == "trivial":
        enter = wp.copy()
    elif spec.kind == "ds":
        # a node is kept once itself and every ancestor is rejected
        enter = level_sweep(dag, np.maximum, wp.copy())
    elif spec.kind == "outer":
        # kept while rejected but before any descendant enters
        low = level_sweep(dag, np.minimum, wp.copy(), upward=True)
        dmin = np.full(wp.shape, np.inf)
        fold_edges(np.minimum, dmin, dag.edge_parent, low, dag.edge_child)
        enter = wp.copy()
        leave = np.maximum(wp, dmin)
    else:                                       # "screen"
        p = np.asarray(pvalues, dtype=float)
        enter = np.where(p <= spec.threshold, wp, np.inf)
    return enter, leave


def interval_counts(enter, leave, ts):
    """#{v: enter[i, v] <= t < leave[i, v]} for every row i of (R, m)
    intervals and each t in row i of an (R, k) block ``ts``: one sorted
    search of each row's thresholds in its sorted enters, less one in its
    sorted leaves.  The second is skipped when every leave is +inf, as
    only "outer" closes intervals."""
    counts = np.empty(ts.shape, dtype=np.intp)
    for row, t, out in zip(np.sort(enter, axis=1), ts, counts):
        out[:] = np.searchsorted(row, t, side="right")
    if not np.isposinf(leave).all():
        for row, t, out in zip(np.sort(leave, axis=1), ts, counts):
            out -= np.searchsorted(row, t, side="right")
    return counts


def filtered_count_curve(spec, dag, weighted_p, pvalues=None):
    """Threshold curve of filtered-set sizes for base sets {i: wp_i <= t}.

    Returns a function mapping a sorted-or-not array of finite thresholds t
    to |F({i: wp_i <= t}, p)| for each t: ``interval_counts`` on the
    ``keep_intervals``, in O(m log m + edges) per call and O(log m) per
    threshold.

    ``weighted_p`` holds one value per node, none NaN (values above 1 are
    legal candidates); ``pvalues``, which "screen" needs, is checked as a
    p-vector of length m whenever given.
    """
    _check_record(spec, "filter", FilterSpec)
    wp = np.asarray(weighted_p, dtype=float)
    if wp.shape != (dag.m,):
        raise LengthMismatchError(
            f"expected {dag.m} weighted p-values, got shape {wp.shape}")
    if np.isnan(wp).any():
        raise DomainError("weighted p-values must not be NaN")
    if pvalues is not None or spec.kind == "screen":
        pvalues = validate_pvector(pvalues, dag.m)
    enter, leave = keep_intervals(spec, dag, wp, pvalues)

    def counts(ts):
        ts = np.asarray(ts, dtype=float)
        return interval_counts(enter[None, :], leave[None, :],
                               ts.reshape(1, -1)).reshape(ts.shape)

    return counts
