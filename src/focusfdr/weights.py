"""Data-adaptive weights for DAG-structured hypotheses.

Each depth d splits into sibling groups (children of a shared parent; the
roots form one group under a dummy parent).  A group's weight is Storey's
within-group null-proportion estimate times a size ratio K, groups at or
below the size threshold c fall back to the ratio alone, and a node that
belongs to several groups gets the harmonic average across them.  Depths
outside the gated set receive unity weights.
The groups are ``dag.group_index``'s membership arrays, so the weights are
two bincounts over the gated memberships: per group, then per node.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .combine import EmptyInputError, validate_pvector
from .dag import _check_int, _check_real, _check_record, _is_int, _is_real


class LambdaOutOfRangeError(ValueError):
    pass


class NoEligibleGroupError(ValueError):
    pass


@dataclass(frozen=True)
class WeightConfig:
    """Weighting parameters, checked when built: Storey's lambda in (0, 1),
    the group-size threshold c an integer >= 0, and dw by ``check_dw_mode``.

    dw selects the depths with data-adaptive weights: "auto" applies the
    minimum-possible-weight rule, "none" gates no depth (all weights 1), or
    pass a collection of depths, which ``resolve_dw`` checks on the graph.
    """

    lam: float = 0.5
    c: int = 1
    dw: object = "auto"

    def __post_init__(self):
        _check_real(self.lam, "lambda", LambdaOutOfRangeError)
        _check_int(self.c, "c: the group-size threshold", 0)
        check_dw_mode(self.dw)


def parse_lambda_policy(policy, q):
    """Storey's lambda under a policy string: "q" (lambda = q) or
    "fixed:<value>", either way in (0, 1)."""
    if policy == "q":
        _check_real(q, "lambda", LambdaOutOfRangeError)
        return q
    if isinstance(policy, str) and policy.startswith("fixed:"):
        text = policy.split(":", 1)[1]
        try:
            lam = float(text)
        except ValueError:
            raise ValueError(f"lambda policy {policy!r}: {text!r} is not a "
                             "number") from None
        _check_real(lam, "lambda", LambdaOutOfRangeError)
        return lam
    raise ValueError(f"unknown lambda policy {policy!r}")


def _is_integer(value):
    """``_is_int``, or a float with no fractional part (a JSON depth 2.0)."""
    return _is_int(value) or (_is_real(value) and float(value).is_integer())


def check_dw_mode(dw):
    """Reject a dw that is neither "auto", "none" nor a collection (of
    depths, which ``check_dw_depths`` checks against a graph)."""
    if isinstance(dw, str) and dw not in ("auto", "none"):
        raise ValueError(f"unknown dw mode {dw!r}")
    # a 0-d array is a Collection, but holds no depths to iterate
    if not isinstance(dw, Collection) or getattr(dw, "ndim", 1) == 0:
        raise ValueError(f"dw must be 'auto', 'none' or depths, got {dw!r}")


def check_dw_depths(dw, max_depth, graph):
    """Reject a dw mode other than "auto" or "none", and explicit dw depths
    that are not integers (booleans and non-integral numbers included) or
    lie outside [1, max_depth] of ``graph``."""
    check_dw_mode(dw)
    if isinstance(dw, str):
        return
    for d in dw:
        if not _is_integer(d):
            raise ValueError(f"dw depth {d!r} is not an integer: {graph} "
                             f"has depths 1 to {max_depth}")
    bad = [d for d in sorted(dw) if not 1 <= d <= max_depth]
    if bad:
        raise ValueError(f"dw depth {bad[0]} is outside [1, {max_depth}]: "
                         f"{graph} has max depth {max_depth}")


def storey_pi0(pvalues, lam):
    """Storey's null-proportion estimate (1 + #{p > lam}) / (m (1 - lam))."""
    _check_real(lam, "lambda", LambdaOutOfRangeError)
    arr = validate_pvector(pvalues)
    if arr.size == 0:
        raise EmptyInputError("need at least one p-value")
    return float(storey_pi0_rows(arr.reshape(1, -1), lam)[0])


def storey_pi0_rows(p, lam):
    """``storey_pi0`` of each row of an (R, m) block, unchecked."""
    return (1.0 + np.count_nonzero(p > lam, axis=1)) / (p.shape[1]
                                                        * (1.0 - lam))


def _depth_rule(groups, lam, c):
    """Per depth 1..max_depth: is some group there larger than c (Storey
    eligible), and the minimum possible weight n_d / ((1 - lam) |H_d|)."""
    WeightConfig(lam, c)            # lam and c checked as in a config
    storey = np.zeros(groups.n_d.size, dtype=bool)
    storey[groups.group_depth[groups.group_size > c]] = True
    n_d, sizes = groups.n_d[1:], groups.depth_sizes[1:]
    return storey[1:], n_d / ((1.0 - lam) * sizes)


def min_possible_weight(d, groups, lam, c=1):
    """Smallest weight any hypothesis at depth d can receive,
    n_d/((1-lam)|H_d|).

    Only defined when some group at d is large enough (> c) for Storey
    estimation; smaller groups carry data-free ratio weights instead.
    """
    storey, floor = _depth_rule(groups, lam, c)
    if not (_is_int(d, 1, storey.size + 1) and storey[d - 1]):
        raise NoEligibleGroupError(
            f"no group at depth {d!r} larger than c={c}")
    return float(floor[d - 1])


def auto_dw(groups, lam, c=1):
    """Depths selected for data-adaptive weights by the structural rule.

    A depth is gated unless its minimum possible weight already exceeds one
    (in which case adaptive weights could only hurt).  Depths whose groups
    are all at or below the size threshold keep their data-free ratio
    weights and are always gated.  The rule never looks at p-values; the
    depths come from ``groups``' per-depth tables.
    """
    storey, floor = _depth_rule(groups, lam, c)
    return frozenset((np.flatnonzero(~storey | (floor <= 1.0)) + 1).tolist())


def resolve_dw(config, groups):
    """Resolve a WeightConfig.dw specification to a checked depth set."""
    dw = config.dw
    check_dw_depths(dw, groups.n_d.size - 1, "the graph")
    if not isinstance(dw, str):
        return frozenset(int(d) for d in dw)
    if dw == "none":
        return frozenset()
    return auto_dw(groups, config.lam, config.c)


class WeightWorkspace:
    """The gated memberships of a GroupIndex for one (depths, groups, dw, c).

    Precomputing these arrays makes both the weight evaluation and the
    leave-self-out variant (each null's weight with its own p-value zeroed,
    as the FDR bound requires) a handful of vectorized passes, which the
    Monte Carlo checks rely on.
    """

    def __init__(self, groups, depths, dw, c):
        self.m = m = len(depths.depth)
        depth, size = groups.group_depth, groups.group_size
        # the size ratio K = size / |H_d| * n_d, in this float order
        ratio = size / groups.depth_sizes[depth] * groups.n_d[depth]
        gated = np.isin(depth, list(dw))[groups.mem_group]
        self.mem_node = groups.mem_node[gated]
        self.mem_group = groups.mem_group[gated]
        self.n_groups = size.size
        # per-membership copies of each group's size, ratio and branch
        self.mem_size = size[self.mem_group].astype(float)
        self.mem_ratio = ratio[self.mem_group]
        self.mem_storey = self.mem_size > c
        # membership count per node, > 0 exactly on nodes at gated depths;
        # the others get weight 1 = (0 + 1) / (0 + 1)
        par_count = np.bincount(self.mem_node, minlength=m).astype(float)
        self.ungated = (par_count == 0).astype(float)
        self.numerator = par_count + self.ungated

    def node_weights(self, pvalues, lam):
        """Per-node weights for the given p-values (1 outside gated depths):
        an (m,) vector, or an (R, m) block weighted row by row."""
        return self._weights(pvalues, lam, leave_self_zero=False)

    def leave_self_zero_weights(self, pvalues, lam):
        """Per-node weights, each with that node's own p-value at 0."""
        return self._weights(pvalues, lam, leave_self_zero=True)

    def _weights(self, pvalues, lam, leave_self_zero):
        p = np.asarray(pvalues, dtype=float)
        exceed = (np.atleast_2d(p) > lam).astype(float)
        r = exceed.shape[0]
        mem_exceed = exceed[:, self.mem_node]
        # the group and node sums of every row in one flattened bincount
        # each: row i's memberships get offset i * n_groups (or i * m) and
        # stay in their order, so every sum adds as a one-row block does
        slot = self.mem_group + (np.arange(r) * self.n_groups)[:, None]
        counts = np.bincount(slot.ravel(), weights=mem_exceed.ravel(),
                             minlength=r * self.n_groups)[slot]
        if leave_self_zero:
            # zeroing p_i removes only node i's own exceedance from its groups
            counts = counts - mem_exceed
        pi_hat = (1.0 + counts) / ((1.0 - lam) * self.mem_size)
        w_flat = np.where(self.mem_storey, pi_hat * self.mem_ratio,
                          self.mem_ratio)
        slot = self.mem_node + (np.arange(r) * self.m)[:, None]
        inv_sum = np.bincount(slot.ravel(), weights=(1.0 / w_flat).ravel(),
                              minlength=r * self.m).reshape(r, self.m)
        # gated nodes' sums are positive, so adding their 0.0 is exact
        return (self.numerator / (inv_sum + self.ungated)).reshape(p.shape)


def dag_weights(dag, depths, groups, pvalues, config):
    """Data-adaptive weights per node under ``config``, an (m,) array."""
    _check_record(config, "weight configuration", WeightConfig)
    arr = validate_pvector(pvalues, dag.m)
    ws = WeightWorkspace(groups, depths, resolve_dw(config, groups), config.c)
    return ws.node_weights(arr, config.lam)
