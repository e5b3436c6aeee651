"""Monte Carlo harness: graph generators, truth assignment, p-value
sampling, the replication engine, and the validity checks that accompany
the procedures.

Each replication draws from its own RNG stream, derived from (seed, grid
index, replication index) through numpy's SeedSequence, in a fixed order:
the graph, the non-null leaves, the shared normal draw, the node draws.

The replications of each p_nonnull cell are evaluated in blocks: their
draws are stacked into (R, m) arrays, which the truth sweep, the p-values,
the smoothing and every procedure (``procedures.run_rows``) take whole.
Every kernel gives each row the floating-point operations it gets alone,
so results are bit-identical for any block size and any worker count.
The deterministic families (wide-tree, deep-tree) are module constants,
built once per process, and get one ``StructurePlan`` (depths, groups,
weight workspace) per ``run_simulation`` and blocks of up to
``_BLOCK_ENTRIES`` entries.  The bipartite families draw a new graph, and
so a new plan, every replication, and run in blocks of one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .combine import Combiner, smooth_all_descendants, smooth_rows
from .dag import build_dag, hereditary, level_sweep
from .filters import FilterSpec
from .procedures import StructurePlan, check_procedure, run_rows
from .special import normal_cdf
from .weights import WeightConfig, check_dw_depths, parse_lambda_policy

SIGNAL_SETUPS = ("global", "decremental", "incremental")


class RhoOutOfRangeError(ValueError):
    pass


class UnknownFamilyError(ValueError):
    pass


def _stars(parents, children):
    """Edges from each parent to its row of ``children``."""
    return np.column_stack((np.repeat(parents, children.shape[1]),
                            children.ravel()))


# the deterministic families: built once per process and shared, read-only
_FIXED_GRAPHS = {
    "wide-tree": build_dag(550, _stars(np.arange(50),
                                       np.arange(50, 550).reshape(50, 10))),
    "deep-tree": build_dag(555, _stars(np.arange(55),
                                       np.arange(5, 555).reshape(55, 10)))}
# each family and the max depth of its every graph: the trees' own, and 2
# for the bipartite families, whose roots point straight at leaves
GRAPH_FAMILIES = {"wide-tree": _FIXED_GRAPHS["wide-tree"].node_ptr.size - 1,
                  "bipartite1": 2,
                  "deep-tree": _FIXED_GRAPHS["deep-tree"].node_ptr.size - 1,
                  "bipartite2": 2}


def _bipartite1(rng, max_tries=1000):
    # 200 roots each pick 10 distinct leaf children; resample until every
    # leaf is covered so the generated graph keeps its two-level shape
    for _ in range(max_tries):
        picks = np.stack([rng.choice(350, size=10, replace=False)
                          for _ in range(200)])
        if np.count_nonzero(np.bincount(picks.ravel(), minlength=350)) == 350:
            return build_dag(550, _stars(np.arange(200), 200 + picks))
    raise RuntimeError("failed to cover every leaf of bipartite graph 1")


def _bipartite2(rng, max_tries=10000):
    # 61 roots x 10 child slots = 610 = 370 single-parent + 2*120
    # double-parent leaves; deal shuffled slots, rejecting hands where a
    # root would receive the same leaf twice
    doubled = rng.choice(490, size=120, replace=False)
    pool = np.concatenate([np.arange(490), doubled])
    for _ in range(max_tries):
        hands = rng.permutation(pool).reshape(61, 10)
        dealt = np.sort(hands, axis=1)
        if not (dealt[:, 1:] == dealt[:, :-1]).any():
            return build_dag(551, _stars(np.arange(61), 61 + hands))
    raise RuntimeError("failed to deal distinct children for bipartite graph 2")


def generate_graph(family, seed=0):
    """One of the named simulation graphs.  Random families draw from
    ``np.random.default_rng(seed)`` (a Generator is used as is); the
    deterministic ones ignore the seed and return one shared, read-only
    Dag, the same object on every call."""
    if family in _FIXED_GRAPHS:
        return _FIXED_GRAPHS[family]
    rng = np.random.default_rng(seed)
    if family == "bipartite1":
        return _bipartite1(rng)
    if family == "bipartite2":
        return _bipartite2(rng)
    raise UnknownFamilyError(f"unknown graph family {family!r}")


def _check_p_nonnull(p_nonnull):
    if not (0.0 < p_nonnull < 1.0):
        raise ValueError(f"p_nonnull must be in (0, 1), got {p_nonnull}")


def _check_rho(rho):
    if not (0.0 <= rho < 1.0):
        raise RhoOutOfRangeError(f"rho must be in [0, 1), got {rho}")


def assign_truth(dag, p_nonnull, seed=0):
    """Sample round(p * #leaves) leaves as non-null, then mark every inner
    node non-null iff it has a non-null child.  The result always respects
    the ancestor-heredity assumption."""
    _check_p_nonnull(p_nonnull)
    nonnull = _truth_rows(dag, p_nonnull, [np.random.default_rng(seed)])
    return frozenset(np.flatnonzero(nonnull[0]).tolist())


def _truth_rows(dag, p_nonnull, streams):
    """Non-null masks, one row per RNG stream: each stream draws its
    round(p * #leaves) non-null leaves, and one upward sweep of the block
    marks every node with a non-null child."""
    k = round(p_nonnull * dag.leaves.size)
    nonnull = np.zeros((len(streams), dag.m), dtype=bool)
    if k > 0:
        for row, rng in zip(nonnull, streams):
            row[rng.choice(dag.leaves, size=k, replace=False)] = True
    level_sweep(dag, np.logical_or, nonnull, upward=True)
    assert hereditary(dag, nonnull)
    return nonnull


def _node_means(depths, setup):
    """Each node's normal mean were it non-null, under the signal setup."""
    d = depths.depth.astype(float)
    if setup == "global":
        return np.full(d.size, 2.0)
    if setup == "decremental":
        return 2.0 + 1.5 * (d - 1.0)
    if setup == "incremental":
        return 2.0 + 1.5 * (depths.max_depth - d)
    raise ValueError(f"unknown signal setup {setup!r}")


def _truth_mask(m, truth):
    nonnull = np.zeros((1, m), dtype=bool)
    nonnull[0, np.fromiter(truth, dtype=np.intp, count=len(truth))] = True
    return nonnull


def signal_means(depths, truth, setup):
    """Per-node normal means: 0 for nulls, setup-dependent for non-nulls."""
    nonnull = _truth_mask(len(depths.depth), truth)[0]
    return np.where(nonnull, _node_means(depths, setup), 0.0)


def sample_pvalues(dag, depths, truth, setup, rho, seed=0):
    """One-sided normal p-values p = 1 - Phi(X) with
    X = mu + (1 - rho) Z + rho Z0 (shared Z0; no variance renormalization).
    The shared draw is consumed even at rho = 0, so the independent model is
    the exact rho = 0 stream."""
    _check_rho(rho)
    return _pvalue_rows(depths, _truth_mask(dag.m, truth), setup, rho,
                        [np.random.default_rng(seed)])[0]


def _pvalue_rows(depths, nonnull, setup, rho, streams):
    """``sample_pvalues`` for each row of the (R, m) non-null mask, each
    row drawing Z0, then Z, from its own stream."""
    mu = np.where(nonnull, _node_means(depths, setup), 0.0)
    z0 = np.empty((len(streams), 1))
    z = np.empty(nonnull.shape)
    for i, rng in enumerate(streams):
        z0[i] = rng.standard_normal()
        z[i] = rng.standard_normal(nonnull.shape[1])
    return normal_cdf(-(mu + (1.0 - rho) * z + rho * z0))


@dataclass(frozen=True)
class MethodSpec:
    """A procedure name plus the filter it reports through."""

    procedure: str
    filter: str = "trivial"

    @property
    def label(self):
        return f"{self.procedure}+{self.filter}"


@dataclass(frozen=True)
class SimConfig:
    family: str = "wide-tree"
    setup: str = "global"
    p_nonnull: tuple = (0.1, 0.3, 0.5)
    rho: float = 0.0
    q: float = 0.05
    lambda_policy: str = "fixed:0.5"
    c: int = 1
    dw: object = "auto"
    n_reps: int = 200
    seed: int = 0
    smoothing: str = None
    methods: tuple = (MethodSpec("wfbh", "ds"), MethodSpec("fbh", "ds"))
    yk_divisor: float = 2.88

    def resolved_lambda(self):
        return parse_lambda_policy(self.lambda_policy, self.q)


@dataclass(frozen=True)
class CellSummary:
    method: str
    filter: str
    p_nonnull: float
    fdr_hat: float
    se_fdr: float
    power_hat: float
    se_power: float
    n_reps: int


@dataclass(frozen=True)
class SimSummary:
    """Aggregated cells plus the raw per-replication (FDP, power) paths.

    Power averages |discoveries intersect non-nulls| / |non-nulls| over all
    non-null nodes, not only leaves; the denominator choice is part of this
    harness's contract, not a claim about any external convention.
    """

    config: SimConfig
    cells: tuple
    histories: dict = field(repr=False)


def _resolve_methods(config):
    """Check the whole sweep (family, setup, every p_nonnull, rho, the dw
    depths, every method at level q, lambda and the smoothing) and parse
    it once, before any replication; returns (weight config, the methods as
    ``run_rows`` takes them, Combiner or None) for the replications."""
    if config.family not in GRAPH_FAMILIES:
        raise UnknownFamilyError(f"unknown graph family {config.family!r}")
    if config.setup not in SIGNAL_SETUPS:
        raise ValueError(f"unknown signal setup {config.setup!r}")
    if not config.p_nonnull:
        raise ValueError("p_nonnull: need at least one non-null proportion")
    for p_nonnull in config.p_nonnull:
        _check_p_nonnull(p_nonnull)
    _check_rho(config.rho)
    check_dw_depths(config.dw, GRAPH_FAMILIES[config.family],
                    f"graph family {config.family!r}")
    if not config.methods:
        raise ValueError("methods: need at least one method")
    for spec in config.methods:
        check_procedure(spec.procedure, config.q, yk_divisor=config.yk_divisor)
    weight_config = WeightConfig(lam=config.resolved_lambda(), c=config.c,
                                 dw=config.dw)
    resolved = tuple((spec.procedure, FilterSpec.from_name(spec.filter),
                      False) for spec in config.methods)
    combiner = (None if config.smoothing is None
                else Combiner.from_name(config.smoothing))
    return weight_config, resolved, combiner


# Entries (replications x nodes) per block of the fixed trees: enough rows
# to amortise each kernel's per-call overhead, few enough that a block's
# arrays stay in cache.
_BLOCK_ENTRIES = 1 << 15


def _run_block(config, resolved, plan, p_idx, reps):
    """Replications ``reps`` of p_nonnull cell ``p_idx`` as one block;
    returns their (FDP, power) pairs, shaped (len(reps), #methods, 2).
    ``resolved`` is ``_resolve_methods(config)``; ``plan`` is the fixed
    family's StructurePlan, or None for a random family, whose block holds
    one replication and plans the graph it draws."""
    weight_config, methods, combiner = resolved
    streams = [np.random.default_rng([config.seed, p_idx, rep])
               for rep in reps]
    if plan is None:
        (rng,) = streams
        plan = StructurePlan(generate_graph(config.family, rng), weight_config)
    dag = plan.dag
    truth = _truth_rows(dag, config.p_nonnull[p_idx], streams)
    pv = _pvalue_rows(plan.depths, truth, config.setup, config.rho, streams)
    if combiner is not None:
        pv = smooth_all_descendants(dag, pv, combiner)

    n_nonnull = np.maximum(np.count_nonzero(truth, axis=1), 1)
    out = np.empty((len(reps), len(methods), 2))
    runs = run_rows(plan, pv, methods, config.q, config.yk_divisor)
    for j, (found, _, _) in enumerate(runs):
        n_disc = np.count_nonzero(found, axis=1)
        false_disc = np.count_nonzero(found & ~truth, axis=1)
        out[:, j, 0] = false_disc / np.maximum(n_disc, 1)
        out[:, j, 1] = (n_disc - false_disc) / n_nonnull
    return out


def resolve_workers(n_workers=None):
    """Worker count: explicit argument, else FOCUSFDR_THREADS (a
    nonnegative integer, 0 = all cores), else serial."""
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get("FOCUSFDR_THREADS", "").strip()
    if not env:
        return 1
    try:
        n = int(env)
        if n < 0:
            raise ValueError
    except ValueError:
        raise ValueError("FOCUSFDR_THREADS must be a nonnegative integer "
                         f"(0 = all cores), got {env!r}") from None
    return (os.cpu_count() or 1) if n == 0 else n


def run_simulation(config, n_workers=None):
    """Run the configured replications over the p_nonnull grid.

    Blocks of replications are mapped in (p_idx, rep) order, serially or
    over a process pool.  Results are deterministic in (config, seed)
    regardless of the worker count and the block size; replication
    streams never depend on scheduling.
    """
    if config.n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {config.n_reps}")
    resolved = _resolve_methods(config)
    workers = resolve_workers(n_workers)
    n_p, n = len(config.p_nonnull), config.n_reps
    plan, rows = None, 1
    if config.family in _FIXED_GRAPHS:
        plan = StructurePlan(_FIXED_GRAPHS[config.family], resolved[0])
        plan.workspace      # built here once, not in every pooled worker
        rows = max(1, _BLOCK_ENTRIES // plan.dag.m)
    starts = range(0, n, rows)
    jobs = (_run_block, repeat(config), repeat(resolved), repeat(plan),
            [p_idx for p_idx in range(n_p) for _ in starts],
            [range(a, min(a + rows, n)) for a in starts] * n_p)
    if workers > 1:
        # about 8 replications per task sent to a worker
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(*jobs, chunksize=max(1, 8 // rows)))
    else:
        blocks = list(map(*jobs))
    results = np.concatenate(blocks).reshape(n_p, n, len(config.methods), 2)

    cells = []
    histories = {}
    for p_idx, p_nonnull in enumerate(config.p_nonnull):
        for mi, spec in enumerate(config.methods):
            # a contiguous (n_reps, 2) copy: mean and std sum in row order
            hist = results[p_idx, :, mi].copy()
            histories[(spec.label, p_nonnull)] = hist
            fdr_hat, power_hat = hist.mean(axis=0)
            sds = hist.std(axis=0, ddof=1) if n > 1 else np.zeros(2)
            cells.append(CellSummary(
                method=spec.procedure, filter=spec.filter,
                p_nonnull=p_nonnull,
                fdr_hat=float(fdr_hat), se_fdr=float(sds[0] / np.sqrt(n)),
                power_hat=float(power_hat), se_power=float(sds[1] / np.sqrt(n)),
                n_reps=n))
    return SimSummary(config=config, cells=tuple(cells), histories=histories)


@dataclass(frozen=True)
class Condition1Result:
    estimate: float
    se: float
    n_nulls: int
    bound: float


def condition1_check(dag, weight_config, truth, n_mc, seed=0, setup="global"):
    """Monte Carlo estimate of the summed expected inverse weights.

    Each replication draws null p-values i.i.d. uniform (non-nulls from the
    signal setup), then evaluates every null node's weight with that node's
    own p-value replaced by zero; the per-replication statistic is the sum
    of inverse weights over the nulls.  FDR control needs the expectation of
    this sum to stay at or below the number of hypotheses.
    """
    rng = np.random.default_rng(seed)
    plan = StructurePlan(dag, weight_config)
    depths, ws, lam = plan.depths, plan.workspace, weight_config.lam

    nulls = np.array([v for v in range(dag.m) if v not in truth], dtype=np.intp)
    mu = signal_means(depths, truth, setup)
    totals = np.empty(n_mc)
    rows = max(1, _BLOCK_ENTRIES // dag.m)
    for a in range(0, n_mc, rows):
        # the rows draw in turn, and a C-ordered take sums each as alone
        x = mu + rng.standard_normal((min(rows, n_mc - a), dag.m))
        w0 = ws.leave_self_zero_weights(normal_cdf(-x), lam)
        totals[a:a + rows] = np.sum(1.0 / np.take(w0, nulls, axis=1), axis=1)
    est = float(totals.mean())
    se = float(totals.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    return Condition1Result(estimate=est, se=se, n_nulls=int(nulls.size),
                            bound=float(dag.m))


@dataclass(frozen=True)
class SuperuniformityResult:
    thresholds: tuple
    cdf: np.ndarray   # shape (m, len(thresholds))
    se: np.ndarray    # shape (len(thresholds),)

    def max_excess_z(self):
        """Largest (F_hat(t) - t)/se over nodes and thresholds."""
        ts = np.asarray(self.thresholds)
        return float(((self.cdf - ts) / self.se).max())


def superuniformity_check(dag, combiner, n_mc, seed=0,
                          thresholds=(0.01, 0.05, 0.1, 0.25, 0.5)):
    """Empirical CDF of each node's smoothed p-value under the full null.

    Valid smoothing keeps every node's CDF at or below the uniform line up
    to Monte Carlo noise; ``se`` is the binomial standard error of the
    empirical CDF at each threshold.
    """
    rng = np.random.default_rng(seed)
    block = rng.uniform(size=(n_mc, dag.m))
    smoothed = smooth_rows(dag, block, combiner)
    ts = np.asarray(thresholds, dtype=float)
    cdf = np.stack([(smoothed <= t).mean(axis=0) for t in ts], axis=1)
    se = np.sqrt(ts * (1.0 - ts) / n_mc)
    return SuperuniformityResult(thresholds=tuple(thresholds), cdf=cdf, se=se)
