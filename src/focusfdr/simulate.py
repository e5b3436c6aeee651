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

Bipartite graph 1 is drawn from raw words: each try's 200
``choice(350, size=10, replace=False)`` calls are taken from one
``random_raw`` block, with their Floyd and Fisher-Yates steps run on all
200 rows at once (``_raw_picks``).  That consumes the stream as the calls
do and gives the same picks; where it cannot (a buffered 32-bit half, or
a word that numpy's bounded draw would reject), the try runs the calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Real

import numpy as np

from .combine import (Combiner, combine_segments, inner_segments,
                      smooth_all_descendants)
from .dag import _is_int, build_dag, hereditary, level_sweep, node_mask
from .procedures import NotATreeError, RunParams, StructurePlan, run_rows
from .special import normal_cdf
from .weights import check_dw_depths

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


# ``Generator.choice(350, size=10, replace=False)`` takes 19 bounded draws:
# 10 for Floyd's sample (the kth in [0, 340 + k]), then 9 for its
# Fisher-Yates shuffle (in [0, 9], ..., [0, 1]).  Each maps one 32-bit word
# w into [0, n) as (w * n) >> 32 (Lemire), and draws a new word when the
# product's low half is below (2^32 - n) mod n.  The n of each draw, and
# that redraw threshold:
_CHOICE_BOUNDS = np.array([*range(341, 351), *range(10, 1, -1)],
                          dtype=np.uint64)
_CHOICE_REDRAW = (2**32 - _CHOICE_BOUNDS) % _CHOICE_BOUNDS


def _raw_picks(bit_generator):
    """The (200, 10) leaf picks of 200 ``choice(350, size=10,
    replace=False)`` calls on a Generator of ``bit_generator``, from one
    ``random_raw(1900)`` block that leaves the stream where those calls
    leave it: they take 3,800 32-bit words, the low and then the high half
    of each 64-bit output.  Returns None, with the state restored, where
    that does not hold: the generator holds a buffered half, or buffers
    none (MT19937), or some word is one Lemire's method redraws."""
    state = bit_generator.state
    if state.get("has_uint32") != 0:
        return None
    words = bit_generator.random_raw(1900).astype("<u8", copy=False)
    prod = words.view("<u4").reshape(200, 19).astype(np.uint64)
    prod *= _CHOICE_BOUNDS
    if ((prod & 0xFFFFFFFF) < _CHOICE_REDRAW).any():
        bit_generator.state = state
        return None
    draws = (prod >> 32).astype(np.int64)
    picks = draws[:, :10]
    for k in range(1, 10):      # Floyd: a value already picked gives way
        taken = (picks[:, :k] == picks[:, k, None]).any(axis=1)
        picks[taken, k] = 340 + k
    rows = np.arange(200)
    for i in range(9, 0, -1):   # Fisher-Yates: swap slot i with slot j
        j = draws[:, 19 - i]
        swapped = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = swapped
    return picks


def _bipartite1(rng, max_tries=1000):
    # 200 roots each pick 10 distinct leaf children; resample until every
    # leaf is covered so the generated graph keeps its two-level shape.
    # A try is drawn from raw words where that consumes the stream as the
    # choice loop does, and by the loop where it does not.
    for _ in range(max_tries):
        picks = _raw_picks(rng.bit_generator)
        if picks is None:
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
    raise RuntimeError(
        "failed to deal distinct children for bipartite graph 2")


def generate_graph(family, seed=0):
    """One of the named simulation graphs.  Random families draw from
    ``_rng(seed)``; the deterministic ones check the seed, ignore it and
    return one shared, read-only Dag, the same object on every call."""
    rng = _rng(seed)
    if family in _FIXED_GRAPHS:
        return _FIXED_GRAPHS[family]
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
    nonnull = _truth_rows(dag, p_nonnull, [_rng(seed)])
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


def signal_means(depths, truth, setup):
    """Per-node normal means: 0 for nulls, setup-dependent for non-nulls."""
    nonnull = node_mask(len(depths.depth), truth)
    return np.where(nonnull, _node_means(depths, setup), 0.0)


def sample_pvalues(dag, depths, truth, setup, rho, seed=0):
    """One-sided normal p-values p = 1 - Phi(X) with
    X = mu + (1 - rho) Z + rho Z0 (shared Z0; no variance renormalization).
    The shared draw is consumed even at rho = 0, so the independent model is
    the exact rho = 0 stream."""
    _check_rho(rho)
    return _pvalue_rows(depths, node_mask(dag.m, truth)[None, :], setup,
                        rho, [_rng(seed)])[0]


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
class SimConfig(RunParams):
    """One Monte Carlo sweep; the keyword-only q, lambda_policy, c, dw and
    yk_divisor are ``RunParams``'."""

    family: str = "wide-tree"
    setup: str = "global"
    p_nonnull: tuple = (0.1, 0.3, 0.5)
    rho: float = 0.0
    n_reps: int = 200
    seed: int = 0
    smoothing: str = None
    methods: tuple = (MethodSpec("wfbh", "ds"), MethodSpec("fbh", "ds"))


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


def _check_seed(seed):
    if not _is_int(seed, 0):
        raise ValueError(f"seed: must be a nonnegative integer, got {seed!r}")


def _rng(seed):
    """``default_rng`` of a ``_check_seed`` seed, or a Generator as is."""
    if not isinstance(seed, np.random.Generator):
        _check_seed(seed)
    return np.random.default_rng(seed)


def _check_n_mc(n_mc):
    if not _is_int(n_mc, 1):
        raise ValueError(f"n_mc: must be an integer, at least 1, got {n_mc!r}")


def _resolve_methods(config):
    """Check the whole sweep (n_reps, family, setup, every p_nonnull, rho,
    seed, dw depths, that no p_nonnull or method label repeats, so each
    cell has its own history, ``RunParams.resolve``, then that the top-down
    baseline runs on a tree family) and parse it once, before any
    replication; returns what ``RunParams.resolve`` returns."""
    if not _is_int(config.n_reps):
        raise ValueError(f"n_reps must be an integer, got {config.n_reps!r}")
    if config.n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {config.n_reps}")
    if config.family not in GRAPH_FAMILIES:
        raise UnknownFamilyError(f"unknown graph family {config.family!r}")
    if config.setup not in SIGNAL_SETUPS:
        raise ValueError(f"unknown signal setup {config.setup!r}")
    if not config.p_nonnull:
        raise ValueError("p_nonnull: need at least one non-null proportion")
    for p_nonnull in config.p_nonnull:
        _check_p_nonnull(p_nonnull)
    _check_rho(config.rho)
    _check_seed(config.seed)
    check_dw_depths(config.dw, GRAPH_FAMILIES[config.family],
                    f"graph family {config.family!r}")
    if not config.methods:
        raise ValueError("methods: need at least one method")
    labels = [spec.label for spec in config.methods]
    for field_name, values in (("p_nonnull", config.p_nonnull),
                               ("methods", labels)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{field_name}: {value!r} is repeated")
    resolved = config.resolve([(spec.procedure, spec.filter, False)
                               for spec in config.methods], config.smoothing)
    # the fixed families are the trees; the bipartite ones never draw one
    if (config.family not in _FIXED_GRAPHS and any(
            spec.procedure == "yekutieli-tree" for spec in config.methods)):
        raise NotATreeError(f"graph family {config.family!r} draws no trees, "
                            "and the top-down baseline requires a tree")
    return resolved


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
    """Worker count: the explicit argument, else FOCUSFDR_THREADS, else
    serial.  Either is a nonnegative integer, 0 meaning all cores."""
    if n_workers is not None:
        if not _is_int(n_workers, 0):
            raise ValueError("n_workers: must be a nonnegative integer "
                             f"(0 = all cores), got {n_workers!r}")
        n = int(n_workers)
    else:
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
    resolved = _resolve_methods(config)
    n = config.n_reps
    workers = resolve_workers(n_workers)
    n_p = len(config.p_nonnull)
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
        # imported here: the pool's modules cost every import of the package
        from concurrent.futures import ProcessPoolExecutor

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
                power_hat=float(power_hat),
                se_power=float(sds[1] / np.sqrt(n)),
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
    _check_n_mc(n_mc)
    nonnull = node_mask(dag.m, truth)
    rng = _rng(seed)
    plan = StructurePlan(dag, weight_config)
    depths, ws, lam = plan.depths, plan.workspace, weight_config.lam

    nulls = np.flatnonzero(~nonnull)
    mu = np.where(nonnull, _node_means(depths, setup), 0.0)
    totals = np.empty(n_mc)
    rows = max(1, _BLOCK_ENTRIES // max(dag.m, 1))
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


# Entries per row chunk of the superuniformity check's null block.  Each
# chunk is drawn, counted and released before the next, so the check's
# memory does not grow with n_mc.  Set by measurement: after the first
# chunk, the allocator reuses the memory of chunks this large, while
# chunks of 2^15-2^19 entries cost tens of thousands of minor page faults
# per check on some graphs, as freed memory is returned and mapped again.
_NULL_CHUNK_ENTRIES = 1 << 20


def superuniformity_check(dag, combiners, n_mc, seed=0,
                          thresholds=(0.01, 0.05, 0.1, 0.25, 0.5)):
    """Empirical CDF of each node's smoothed p-value under the full null,
    one ``SuperuniformityResult`` per combiner, in order.

    Valid smoothing keeps every node's CDF at or below the uniform line up
    to Monte Carlo noise; ``se`` is the binomial standard error of the
    empirical CDF at each threshold, which must be numbers in (0, 1).

    Every combiner sees the same (n_mc, m) uniform null block from
    ``_rng(seed)``, drawn in row chunks of at most
    ``_NULL_CHUNK_ENTRIES`` entries, in turn (the stream of one whole
    draw).  A leaf's smoothed p-value is its raw one, so each chunk's raw
    per-node counts at or below each threshold are added once, and per
    combiner only the inner nodes' counts (``combine.inner_segments``),
    from the values ``combine_segments`` gives their closure rows, as in
    ``smooth_rows``.  Each row is smoothed as it is alone, and each CDF
    entry is an exact count divided by n_mc once, so this matches
    smoothing the whole block bit for bit, in memory independent of n_mc.
    An empty graph gives a (0, len(thresholds)) ``cdf`` per combiner.
    """
    _check_n_mc(n_mc)
    if not (isinstance(combiners, (list, tuple)) and combiners
            and all(isinstance(c, Combiner) for c in combiners)):
        raise ValueError("combiners: need a non-empty list or tuple of "
                         f"Combiner, got {combiners!r}")
    if len(thresholds) == 0:
        raise ValueError("thresholds: need at least one threshold")
    for t in thresholds:
        if not (isinstance(t, Real) and 0.0 < t < 1.0):
            raise ValueError(f"thresholds: {t!r} is not a number in (0, 1)")
    rng = _rng(seed)
    ts = np.asarray(thresholds, dtype=float)
    inner, indptr, indices = inner_segments(dag)
    raw = np.zeros((dag.m, ts.size), dtype=np.intp)
    counts = np.zeros((len(combiners), inner.size, ts.size), dtype=np.intp)
    rows = max(1, _NULL_CHUNK_ENTRIES // max(dag.m, 1))
    for a in range(0, n_mc, rows):
        chunk = rng.uniform(size=(min(rows, n_mc - a), dag.m))
        raw += _column_counts(chunk, ts)
        for count, combiner in zip(counts, combiners):
            count += _column_counts(
                combine_segments(combiner, chunk, inner, indptr, indices), ts)
        del chunk                       # released before the next draw
    se = np.sqrt(ts * (1.0 - ts) / n_mc)
    results = []
    for count in counts:
        cdf = raw / n_mc
        cdf[inner] = count / n_mc
        results.append(SuperuniformityResult(thresholds=tuple(thresholds),
                                              cdf=cdf, se=se))
    return results


def _column_counts(x, ts):
    """How many entries of each column of x are at or below each
    threshold: shape (columns, thresholds).  Every threshold compares
    into one reused bool buffer, whose bytes are summed down the columns
    as uint8 into int32 counts."""
    hits = np.empty(x.shape, dtype=bool)
    counts = np.empty((ts.size, x.shape[1]), dtype=np.int32)
    for t, count in zip(ts, counts):
        np.less_equal(x, t, out=hits)
        np.add.reduce(hits.view(np.uint8), axis=0, dtype=np.int32,
                      out=count)
    return counts.T
