"""Multiple testing procedures: BH, Storey-BH, the focused step-up family
(weighted, reshaped), a simplified top-down tree baseline, and the name
dispatch shared by analyses and simulations.

The focused procedures scan the candidate thresholds
{0, w_1 p_1, ..., w_m p_m}, estimate the false discovery proportion of each
filtered candidate set, and keep the largest feasible threshold.
Feasibility is tested in the cross-multiplied form m*t <= q*count so the
unity-weight/trivial-filter case agrees bit-for-bit with the textbook
step-up rule.

The kernels (weights, keep intervals, threshold scan, step-up, top-down)
work on (R, m) blocks, one row per p-value vector, with each row getting
the floating-point operations it gets alone.  ``run_rows`` runs a
procedure by name on a block over a ``StructurePlan``; ``run_procedure``
and the public procedures are their one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combine import Combiner, validate_pvector
from .dag import _is_int, compute_depths, group_index, is_tree, level_sweep
from .filters import (FilterSpec, apply_filter, interval_counts,
                      keep_intervals)
from .weights import (WeightConfig, WeightWorkspace, parse_lambda_policy,
                      resolve_dw, storey_pi0, storey_pi0_rows)


class QOutOfRangeError(ValueError):
    pass


class NonpositiveWeightError(ValueError):
    pass


class InvalidReshapingError(ValueError):
    pass


class NotATreeError(ValueError):
    pass


class LevelOutOfRangeError(ValueError):
    pass


def _check_q(q):
    if not (0.0 < q < 1.0):
        raise QOutOfRangeError(f"target FDR level must be in (0, 1), got {q}")


def _step_up(p, q, pi0=1.0, beta=None):
    """Rejection mask of each row of an (R, m) block: the row's k smallest
    p-values, k maximal with p_(k) m pi0 <= k q, or q beta(k) if given
    (``pi0`` a scalar or one value per row, shaped (R, 1)).  A maximal k
    never splits a run of ties, since p_(k+1) = p_(k) makes k + 1 feasible
    too, so the mask is p <= p_(k), the largest feasible sorted value."""
    m = p.shape[1]
    srt = np.sort(p, axis=1)
    ks = np.arange(1, m + 1)
    feasible = srt * m * pi0 <= (ks * q if beta is None else q * beta(ks))
    cut = np.max(np.where(feasible, srt, -np.inf), axis=1, initial=-np.inf)
    return p <= cut[:, None]


def _row_set(mask):
    return frozenset(np.flatnonzero(mask).tolist())


def bh(pvalues, q):
    """Classic step-up rule: reject the k smallest p-values, k maximal with
    p_(k) <= k q / m.  Kept deliberately textbook; it doubles as the
    reference oracle for the focused procedures with unity weights."""
    _check_q(q)
    return _row_set(_step_up(validate_pvector(pvalues).reshape(1, -1), q)[0])


def storey_bh(pvalues, q, lam):
    """Adaptive step-up with thresholds k q / (m pi0_hat)."""
    _check_q(q)
    p = validate_pvector(pvalues)
    return _row_set(_step_up(p.reshape(1, -1), q, storey_pi0(p, lam))[0])


@dataclass(frozen=True)
class ReshapingFn:
    """A reshaping function beta with beta(r) <= r, nondecreasing, beta(0)=0,
    checked when built: "identity", "by" (scale r, scale in (0, 1]) or
    "custom" (table[min(r, len(table) - 1)]); unused fields keep defaults.

    The "by" instance beta(r) = r / sum_{i<=m} 1/i buys validity under
    arbitrary dependence at the usual logarithmic cost.
    """

    kind: str
    scale: float = 1.0
    table: tuple = None

    def __post_init__(self):
        kind, table, custom = self.kind, self.table, self.kind == "custom"
        if kind not in ("identity", "by", "custom"):
            raise InvalidReshapingError(f"unknown reshaping kind {kind!r}")
        if (table is None) == custom:
            raise InvalidReshapingError(f"{kind} reshaping " + (
                "needs a table" if custom else "takes no table"))
        if not (0.0 < self.scale <= 1.0 if kind == "by" else self.scale == 1):
            raise InvalidReshapingError(
                f"{kind} reshaping: scale must be "
                f"{'in (0, 1]' if kind == 'by' else '1'}, got {self.scale!r}")
        if custom and (len(table) == 0 or table[0] != 0.0):
            raise InvalidReshapingError("table must start with beta(0) = 0")
        for r in range(1, len(table) if custom else 0):
            if not table[r - 1] <= table[r]:
                raise InvalidReshapingError("beta must be nondecreasing")
            if not table[r] <= r:
                raise InvalidReshapingError("beta(r) must not exceed r")

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def by(cls, m):
        if not _is_int(m, 1):
            raise InvalidReshapingError("BY reshaping needs an integer m >= 1")
        return cls("by", scale=1.0 / np.sum(1.0 / np.arange(1, m + 1)))

    @classmethod
    def custom(cls, values):
        return cls("custom", table=tuple(float(v) for v in values))

    def __call__(self, counts):
        counts = np.asarray(counts, dtype=float)
        if self.kind == "custom":
            idx = np.clip(counts.astype(np.intp), 0, len(self.table) - 1)
            out = np.asarray(self.table, dtype=float)[idx]
        else:           # identity's scale 1 multiplies exactly
            out = counts * self.scale
        return float(out) if counts.ndim == 0 else out


def _weights_array(weights, m):
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if np.any(~(w > 0.0)):
        raise NonpositiveWeightError("all weights must be positive")
    return w


@dataclass(frozen=True, eq=False)     # array fields: compared by identity
class ProcedureResult:
    """One run of a procedure on one p-value vector: the discovery mask
    ``found``, the weights used and, for the focused methods, the weighted
    p-values, t* and the estimated FDP at t*.  For the other methods those
    three are None and the base set is the discovery set."""

    found: np.ndarray
    weights_used: np.ndarray
    weighted_p: np.ndarray = None
    t_star: float = None
    fdp_hat_at_tstar: float = None

    @classmethod
    def of_row(cls, found, w, scan):
        """The record of row 0 of one method's (found, weights, scan) from
        ``run_rows``."""
        if scan is None:
            return cls(found[0], w[0])
        wp, t_star, beta = scan
        t_star = float(t_star[0, 0])
        n_disc = np.count_nonzero(found[0])
        fdp_hat = (float(wp.shape[1] * t_star / beta(float(n_disc))) if n_disc
                   else 0.0 if t_star == 0.0 else float("inf"))
        return cls(found[0], w[0], wp[0], t_star, fdp_hat)

    @cached_property
    def discovery_set(self):
        return _row_set(self.found)

    @cached_property
    def base_set(self):
        return (self.discovery_set if self.weighted_p is None
                else _row_set(self.weighted_p <= self.t_star))

    @cached_property
    def candidate_count(self):
        return (None if self.weighted_p is None else
                int(np.unique(np.concatenate(([0.0], self.weighted_p))).size))


def unity_weights(m):
    """Weight 1 for each of ``m`` nodes, a count: an integer >= 0."""
    if not _is_int(m, 0):
        raise ValueError(f"m: must be a nonnegative integer, got {m!r}")
    return np.ones(m)


def _scan(wp, enter, leave, q, beta):
    """The threshold t* of each row of (R, m) blocks, shaped (R, 1): the
    largest candidate t in {0} union {wp_v} with m*t <= q*beta(count(t)),
    count(t) = #{v: enter_v <= t < leave_v}.  Tied weighted p-values repeat
    a candidate, and with it its count, so the feasible values are those
    of the distinct candidates."""
    m = wp.shape[1]
    cands = np.sort(wp, axis=1)
    reshaped = beta(interval_counts(enter, leave, cands).astype(float))
    # m*t <= q*beta(count), with 0/0 = 0 at t = 0 and +inf otherwise;
    # t = 0 is always feasible, so it is the floor of the maximum
    feasible = (m * cands <= q * reshaped) & (reshaped > 0)
    return np.max(np.where(feasible, cands, 0.0), axis=1, initial=0.0,
                  keepdims=True)


def _focused_rows(dag, p, w, filter_spec, q, beta):
    """The focused scan on each row of (R, m) p-values and weights; returns
    the weighted p-values, t* (shaped (R, 1)) and the discovery mask
    {v: enter_v <= t* < leave_v}.  Inputs are not checked."""
    wp = w * p
    enter, leave = keep_intervals(filter_spec, dag, wp, p)
    t_star = _scan(wp, enter, leave, q, beta)
    return wp, t_star, (enter <= t_star) & (t_star < leave)


def wfbh(dag, pvalues, weights, filter_spec, q, reshaping=None):
    """Weighted focused step-up procedure.

    Candidates t in {0} union {w_i p_i}; the estimated FDP at t is
    m*t / beta(|F({i: w_i p_i <= t}, p)|); the returned threshold is the
    largest feasible candidate, the base set is {i: w_i p_i <= t*}, and the
    reported discoveries are the filtered base set.  With unity weights this
    is the plain focused procedure; with the trivial filter on top it
    reduces to BH.  Weighted p-values above 1 stay legal candidates.
    Both the scan and the discoveries come from the filter's keep
    intervals: the discoveries are {v: enter_v <= t* < leave_v}.
    """
    _check_q(q)
    p = validate_pvector(pvalues, dag.m)
    w = _weights_array(weights, dag.m).reshape(1, -1)
    beta = reshaping if reshaping is not None else ReshapingFn.identity()
    wp, t_star, found = _focused_rows(dag, p.reshape(1, -1), w, filter_spec,
                                      q, beta)
    return ProcedureResult.of_row(found, w, (wp, t_star, beta))


def weighted_reshaped_fbh(dag, pvalues, weights, filter_spec, q, beta):
    """Reshaped variant: identical scan with beta applied to the filtered
    count, hence never a larger threshold than the unreshaped run."""
    if not isinstance(beta, ReshapingFn):
        raise InvalidReshapingError("beta must be a ReshapingFn")
    return wfbh(dag, pvalues, weights, filter_spec, q, reshaping=beta)


def fbh(dag, pvalues, filter_spec, q):
    """Focused step-up with unity weights."""
    return wfbh(dag, pvalues, unity_weights(dag.m), filter_spec, q)


def by_procedure(pvalues, q):
    """Benjamini-Yekutieli: step-up with the harmonic-sum correction."""
    _check_q(q)
    p = validate_pvector(pvalues)
    return _row_set(_step_up(p.reshape(1, -1), q,
                             beta=ReshapingFn.by(p.size))[0])


def _top_down(dag, p, level):
    """The top-down baseline on each row of an (R, m) block: BH at
    ``level`` in every sibling family (the roots form one), by ``_step_up``'s
    float operations on one lexsort of each row by (family, p), then kept
    where the parent is kept, by one downward ``level_sweep``."""
    if not is_tree(dag):
        raise NotATreeError("the top-down baseline requires a tree")
    if dag.m == 0:
        return np.zeros(p.shape, dtype=bool)
    family = np.zeros(dag.m, dtype=np.intp)         # 0 for the roots
    family[dag.edge_child] = dag.edge_parent + 1
    order = np.lexsort((p, np.broadcast_to(family, p.shape)))
    srt, fam = np.take_along_axis(p, order, axis=1), np.sort(family)
    size = np.bincount(family)
    start = np.cumsum(size) - size      # each family's first sorted slot
    rank = np.arange(1, dag.m + 1) - start[fam]
    feasible = srt * size[fam] <= rank * level
    live = np.flatnonzero(size)
    cut = np.maximum.reduceat(np.where(feasible, srt, -np.inf), start[live],
                              axis=1)
    # C order whatever p's layout: level_sweep folds C-ordered blocks
    hits = np.less_equal(p, cut[:, np.searchsorted(live, family)], order="C")
    return level_sweep(dag, np.logical_and, hits)


def yekutieli_tree(dag, pvalues, level):
    """Simplified top-down tree procedure (non-authoritative baseline).

    Tests the root family with BH at ``level``; each rejected node's child
    family is then tested the same way, recursively.  Callers that target
    full-tree FDR control apply their own level calibration first.
    """
    if not (0.0 < level < 1.0):
        raise LevelOutOfRangeError(f"level must be in (0, 1), got {level}")
    p = validate_pvector(pvalues, dag.m)
    return _row_set(_top_down(dag, p.reshape(1, -1), level)[0])


PROCEDURES = ("bh", "storey-bh", "by", "fbh", "wfbh", "wrfbh",
              "yekutieli-tree")
# the procedures with a filtered count that a reshaping function can act on
FOCUSED = ("fbh", "wfbh", "wrfbh")
# the default divisor of q that gives the top-down baseline its level
YK_DIVISOR = 2.88


def check_procedure(name, q, reshaped=False, yk_divisor=YK_DIVISOR):
    """Reject what ``run_procedure`` cannot run: an unknown name, reshaping
    asked of a procedure without a filtered count, or a target level q
    outside (0, 1); the top-down baseline runs at level q / yk_divisor
    instead, with a finite positive divisor."""
    if name not in PROCEDURES:
        raise ValueError(f"unknown procedure {name!r}; choose from "
                         + ", ".join(PROCEDURES))
    if reshaped and name not in FOCUSED:
        raise InvalidReshapingError(
            f"method {name!r} takes no reshaping; only the focused methods "
            + ", ".join(FOCUSED) + " accept it")
    if name != "yekutieli-tree":
        _check_q(q)
    elif not 0.0 < yk_divisor < np.inf:
        raise ValueError(
            f"yk-divisor must be finite and > 0, got {yk_divisor}")
    elif not 0.0 < q / yk_divisor < 1.0:
        raise LevelOutOfRangeError("yekutieli-tree level q / yk-divisor must "
                                   f"be in (0, 1), got {q / yk_divisor}")


@dataclass(frozen=True, kw_only=True)
class RunParams:
    """The run parameters of analyses and simulations alike, with their
    defaults: see ``check_procedure`` for q and yk_divisor, and
    ``parse_lambda_policy`` and ``WeightConfig`` for the rest."""

    q: float = 0.05
    lambda_policy: str = "fixed:0.5"
    c: int = WeightConfig.c
    dw: object = WeightConfig.dw
    yk_divisor: float = YK_DIVISOR

    def resolved_lambda(self):
        return parse_lambda_policy(self.lambda_policy, self.q)

    def resolve(self, methods, smoothing):
        """Check each (procedure, filter name, reshaped) of ``methods`` at
        level q, then lambda, c, the dw mode (its depths need the graph),
        each filter and the ``smoothing`` combiner; returns (WeightConfig,
        methods for ``run_rows``, Combiner or None)."""
        for name, _, reshaped in methods:
            check_procedure(name, self.q, reshaped, self.yk_divisor)
        config = WeightConfig(self.resolved_lambda(), self.c, self.dw)
        resolved = tuple((name, FilterSpec.from_name(filter_name), reshaped)
                         for name, filter_name, reshaped in methods)
        combiner = None if smoothing is None else Combiner.from_name(smoothing)
        return config, resolved, combiner


class StructurePlan:
    """What the procedures read of one graph, none of which depends on p:
    its depths and sibling groups and, built on first use, the
    ``WeightWorkspace`` of the weight configuration's resolved dw set.  One
    plan serves every procedure and every row of p-values run on the
    graph."""

    def __init__(self, dag, weight_config):
        self.dag = dag
        self.weight_config = weight_config
        self.depths = compute_depths(dag)
        self.groups = group_index(dag, self.depths)

    @cached_property
    def workspace(self):
        cfg = self.weight_config
        return WeightWorkspace(self.groups, self.depths,
                               resolve_dw(cfg, self.groups), cfg.c)


def run_rows(plan, p, methods, q, yk_divisor=YK_DIVISOR):
    """Run each (name, filter, reshaped) of ``methods`` on every row of an
    (R, m) block of p-values over ``plan``'s graph; returns one (found,
    weights, scan) per method: the (R, m) discovery mask and weights, and
    for the focused methods the weighted p-values, t* (shaped (R, 1)) and
    the reshaping, else None.

    The focused methods scan with unity (fbh) or adaptive weights,
    BY-reshaped for wrfbh or when reshaped; the adaptive weights are
    computed once for all of them.  The others ignore the filter and weigh
    every node 1; ``yekutieli-tree`` runs ``_top_down`` at level
    q / yk_divisor.  Only its tree is checked here: see ``run_procedure``.
    """
    ones, adaptive, out = np.ones(p.shape), None, []
    lam = plan.weight_config.lam
    for name, fspec, reshaped in methods:
        scan = None
        if name in FOCUSED:
            if name != "fbh" and adaptive is None:
                adaptive = plan.workspace.node_weights(p, lam)
            w = ones if name == "fbh" else adaptive
            beta = (ReshapingFn.by(plan.dag.m) if reshaped or name == "wrfbh"
                    else ReshapingFn.identity())
            wp, t_star, found = _focused_rows(plan.dag, p, w, fspec, q, beta)
            scan = wp, t_star, beta
        elif name == "bh":
            w, found = ones, _step_up(p, q)
        elif name == "storey-bh":
            w, found = ones, _step_up(p, q, storey_pi0_rows(p, lam)[:, None])
        elif name == "by":
            w, found = ones, _step_up(p, q, beta=ReshapingFn.by(plan.dag.m))
        else:
            w, found = ones, _top_down(plan.dag, p, q / yk_divisor)
        out.append((found, w, scan))
    return out


def run_procedure(plan, p, name, fspec, q, reshaped=False,
                  yk_divisor=YK_DIVISOR):
    """Run the named procedure on p over ``plan``'s graph; returns its
    ProcedureResult.  This is ``run_rows`` on one row, after checking its
    arguments."""
    check_procedure(name, q, reshaped, yk_divisor)
    p = validate_pvector(p, plan.dag.m)
    [(found, w, scan)] = run_rows(plan, p.reshape(1, -1),
                                  [(name, fspec, reshaped)], q, yk_divisor)
    return ProcedureResult.of_row(found, w, scan)


def brute_force_tstar(dag, pvalues, weights, filter_spec, q, reshaping=None):
    """Independent threshold scan: evaluates the estimated FDP at every
    candidate with a fresh filter application and returns the max feasible
    threshold.  Exists as the oracle for the optimized curve-based scan."""
    _check_q(q)
    p = validate_pvector(pvalues, dag.m)
    w = _weights_array(weights, dag.m)
    beta = reshaping if reshaping is not None else ReshapingFn.identity()
    wp = w * p
    best = 0.0
    for t in sorted(set([0.0] + list(wp))):
        base = [i for i in range(dag.m) if wp[i] <= t]
        size = len(apply_filter(filter_spec, dag, base, p))
        denom = beta(float(size))
        if denom > 0:
            fdp = dag.m * t / denom
        else:
            fdp = 0.0 if t == 0.0 else float("inf")
        if fdp <= q:
            best = max(best, t)
    return best
