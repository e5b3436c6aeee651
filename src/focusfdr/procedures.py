"""Multiple testing procedures: BH, Storey-BH, the focused step-up family
(weighted, reshaped), a simplified top-down tree baseline, and
``run_procedure``, the name dispatch shared by analyses and simulations.

The focused procedures scan the candidate thresholds {0, w_1 p_1, ..., w_m p_m},
estimate the false discovery proportion of each filtered candidate set, and
keep the largest feasible threshold.  Feasibility is tested in the
cross-multiplied form m*t <= q*count so the unity-weight/trivial-filter case
agrees bit-for-bit with the textbook step-up rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combine import validate_pvalues
from .dag import build_dag, is_tree
from .filters import (TRIVIAL, apply_filter, interval_count_curve,
                      keep_intervals)
from .weights import WeightVector, dag_weights, storey_pi0


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


def _step_up(p, q, pi0=1.0):
    """Reject the k smallest p-values, k maximal with p_(k) m pi0 <= k q."""
    m = p.size
    order = np.argsort(p, kind="stable")
    ks = np.flatnonzero(p[order] * m * pi0 <= np.arange(1, m + 1) * q)
    if ks.size == 0:
        return frozenset()
    return frozenset(int(i) for i in order[:ks[-1] + 1])


def bh(pvalues, q):
    """Classic step-up rule: reject the k smallest p-values, k maximal with
    p_(k) <= k q / m.  Kept deliberately textbook; it doubles as the
    reference oracle for the focused procedures with unity weights."""
    _check_q(q)
    return _step_up(validate_pvalues(pvalues), q)


def storey_bh(pvalues, q, lam):
    """Adaptive step-up with thresholds k q / (m pi0_hat)."""
    _check_q(q)
    p = validate_pvalues(pvalues)
    return _step_up(p, q, storey_pi0(p, lam))


@dataclass(frozen=True)
class ReshapingFn:
    """A reshaping function beta with beta(r) <= r, nondecreasing, beta(0)=0.

    The "by" instance beta(r) = r / sum_{i<=m} 1/i buys validity under
    arbitrary dependence at the usual logarithmic cost.
    """

    kind: str
    scale: float = 1.0
    table: tuple = None

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def by(cls, m):
        if m < 1:
            raise InvalidReshapingError("BY reshaping needs m >= 1")
        return cls("by", scale=1.0 / np.sum(1.0 / np.arange(1, m + 1)))

    @classmethod
    def custom(cls, values):
        vals = tuple(float(v) for v in values)
        if not vals or vals[0] != 0.0:
            raise InvalidReshapingError("table must start with beta(0) = 0")
        for r in range(1, len(vals)):
            if vals[r] < vals[r - 1]:
                raise InvalidReshapingError("beta must be nondecreasing")
            if vals[r] > r:
                raise InvalidReshapingError("beta(r) must not exceed r")
        return cls("custom", table=vals)

    def __call__(self, counts):
        counts = np.asarray(counts, dtype=float)
        if self.kind == "identity":
            out = counts
        elif self.kind == "by":
            out = counts * self.scale
        elif self.kind == "custom":
            idx = np.clip(counts.astype(np.intp), 0, len(self.table) - 1)
            out = np.asarray(self.table, dtype=float)[idx]
        else:
            raise InvalidReshapingError(f"unknown reshaping {self.kind!r}")
        return float(out) if counts.ndim == 0 else out


def _weights_array(weights, m):
    if isinstance(weights, WeightVector):
        w = np.asarray(weights.values, dtype=float)
    else:
        w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if np.any(~(w > 0.0)):
        raise NonpositiveWeightError("all weights must be positive")
    return w


@dataclass(frozen=True)
class ProcedureResult:
    """Threshold, base and filtered rejection sets, plus provenance."""

    t_star: float
    base_set: frozenset
    discovery_set: frozenset
    weights_used: np.ndarray
    fdp_hat_at_tstar: float
    candidate_count: int

    @property
    def num_discoveries(self):
        return len(self.discovery_set)


def unity_weights(m):
    return np.ones(m)


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
    p = validate_pvalues(pvalues)
    if p.size != dag.m:
        raise ValueError(f"expected {dag.m} p-values, got {p.size}")
    w = _weights_array(weights, dag.m)
    beta = reshaping if reshaping is not None else ReshapingFn.identity()

    wp = w * p
    cands = np.unique(np.concatenate(([0.0], wp)))
    enter, leave = keep_intervals(filter_spec, dag, wp, p)
    counts = interval_count_curve(enter, leave)(cands)
    reshaped = beta(counts.astype(float))
    # m*t <= q*beta(count), with 0/0 = 0 at t = 0 and +inf otherwise
    feasible = (dag.m * cands <= q * reshaped) & (reshaped > 0)
    feasible |= cands == 0.0
    t_star = float(cands[feasible][-1])

    base = frozenset(np.flatnonzero(wp <= t_star).tolist())
    discoveries = frozenset(
        np.flatnonzero((enter <= t_star) & (t_star < leave)).tolist())
    n_disc = len(discoveries)
    if t_star == 0.0 and n_disc == 0:
        fdp_hat = 0.0
    else:
        fdp_hat = float(dag.m * t_star / beta(float(n_disc))) if n_disc else float("inf")
    return ProcedureResult(t_star=t_star, base_set=base,
                           discovery_set=discoveries, weights_used=w,
                           fdp_hat_at_tstar=fdp_hat,
                           candidate_count=int(cands.size))


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
    p = validate_pvalues(pvalues)
    flat = build_dag(p.size, [])
    res = weighted_reshaped_fbh(flat, p, unity_weights(p.size), TRIVIAL, q,
                                ReshapingFn.by(p.size))
    return res.discovery_set


def yekutieli_tree(dag, pvalues, level):
    """Simplified top-down tree procedure (non-authoritative baseline).

    Tests the root family with BH at ``level``; each rejected node's child
    family is then tested the same way, recursively.  Callers that target
    full-tree FDR control apply their own level calibration first.
    """
    if not is_tree(dag):
        raise NotATreeError("the top-down baseline requires a tree")
    if not (0.0 < level < 1.0):
        raise LevelOutOfRangeError(f"level must be in (0, 1), got {level}")
    p = validate_pvalues(pvalues)
    if p.size != dag.m:
        raise ValueError(f"expected {dag.m} p-values, got {p.size}")

    ptr, kids = dag.child_indptr, dag.child_indices
    rejected = set()
    frontier = [dag.roots.tolist()]
    while frontier:
        family = frontier.pop()
        if not family:
            continue
        family_hits = bh(p[family], level)
        for local in family_hits:
            node = family[local]
            rejected.add(node)
            frontier.append(kids[ptr[node]:ptr[node + 1]].tolist())
    return frozenset(rejected)


PROCEDURES = ("bh", "storey-bh", "by", "fbh", "wfbh", "wrfbh", "yekutieli-tree")
# the procedures with a filtered count that a reshaping function can act on
FOCUSED = ("fbh", "wfbh", "wrfbh")


def check_procedure(name, reshaped=False, yk_divisor=2.88):
    """Reject what ``run_procedure`` cannot run: an unknown name, reshaping
    asked of a procedure without a filtered count, or a top-down level
    divisor that is not finite and positive."""
    if name not in PROCEDURES:
        raise ValueError(f"unknown procedure {name!r}; choose from "
                         + ", ".join(PROCEDURES))
    if reshaped and name not in FOCUSED:
        raise InvalidReshapingError(
            f"method {name!r} takes no reshaping; only the focused methods "
            + ", ".join(FOCUSED) + " accept it")
    if name == "yekutieli-tree" and not 0.0 < yk_divisor < np.inf:
        raise ValueError(f"yk-divisor must be finite and > 0, got {yk_divisor}")


def run_procedure(name, dag, depths, groups, p, fspec, q, weight_config,
                  reshaped=False, yk_divisor=2.88):
    """Run the named procedure on p; returns (discoveries, weights, result).

    The focused methods run ``wfbh`` with unity (fbh) or adaptive weights,
    BY-reshaped for wrfbh or when ``reshaped``; result is their
    ProcedureResult.  The others ignore the filter and return unity weights
    and result None.  ``yekutieli-tree`` runs at level q / yk_divisor.
    """
    check_procedure(name, reshaped, yk_divisor)
    if name in FOCUSED:
        w = (unity_weights(dag.m) if name == "fbh"
             else dag_weights(dag, depths, groups, p, weight_config))
        beta = ReshapingFn.by(dag.m) if reshaped or name == "wrfbh" else None
        result = wfbh(dag, p, w, fspec, q, reshaping=beta)
        return result.discovery_set, result.weights_used, result
    if name == "bh":
        discoveries = bh(p, q)
    elif name == "storey-bh":
        discoveries = storey_bh(p, q, weight_config.lam)
    elif name == "by":
        discoveries = by_procedure(p, q)
    else:
        discoveries = yekutieli_tree(dag, p, q / yk_divisor)
    return discoveries, unity_weights(dag.m), None


def brute_force_tstar(dag, pvalues, weights, filter_spec, q, reshaping=None):
    """Independent threshold scan: evaluates the estimated FDP at every
    candidate with a fresh filter application and returns the max feasible
    threshold.  Exists as the oracle for the optimized curve-based scan."""
    _check_q(q)
    p = validate_pvalues(pvalues)
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
