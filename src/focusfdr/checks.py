"""Named verification suites behind the ``check`` CLI command.

Each suite returns (passed, report lines) so the command can print numeric
evidence and exit nonzero on failure.  The suites are also exercised by the
test suite, which pins their expected outcomes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .combine import Combiner
from .dag import (_check_int, _check_items, build_dag, compute_depths,
                  group_index)
from .filters import FilterSpec, apply_filter, is_monotonic
from .procedures import ReshapingFn, brute_force_tstar, wfbh
from .simulate import condition1_check, generate_graph, superuniformity_check
from .special import normal_quantile
from .weights import WeightConfig, dag_weights


class UnknownSuiteError(ValueError):
    pass


def random_dag(rng, max_m=12, edge_prob=0.3):
    """Random DAG: edges i -> j sampled for i < j."""
    m = int(rng.integers(2, max_m + 1))
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)
             if rng.random() < edge_prob]
    return build_dag(m, edges)


def random_tree(rng, max_m=12):
    """Random rooted tree: each node beyond the first picks an earlier
    parent."""
    m = int(rng.integers(2, max_m + 1))
    edges = [(int(rng.integers(0, j)), j) for j in range(1, m)]
    return build_dag(m, edges)


def random_near_tree(rng, max_m=12, extra_edges=3):
    """Deep random near-tree: a path through the first half of the nodes,
    the rest hung on random earlier nodes, plus up to ``extra_edges``
    random forward edges."""
    m = int(rng.integers(2, max_m + 1))
    spine = m // 2 + 1
    edges = {(j - 1, j) if j < spine else (int(rng.integers(0, j)), j)
             for j in range(1, m)}
    for _ in range(int(rng.integers(0, extra_edges + 1))):
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        edges.add((i, j))
    return build_dag(m, sorted(edges))


def check_condition1(n_mc=10_000, seed=0):
    """Summed inverse leave-self-zero weights on the all-null wide tree."""
    dag = generate_graph("wide-tree")
    res = condition1_check(dag, WeightConfig(lam=0.5, c=1, dw="auto"),
                           truth=frozenset(), n_mc=n_mc, seed=seed)
    bound = res.bound * (1.0 + 3.0 * res.se / res.estimate)
    ok = res.estimate <= bound
    lines = [f"estimate={res.estimate:.4f} se={res.se:.4f} "
             f"nulls={res.n_nulls} bound={bound:.4f}"]
    return ok, lines


def check_superuniformity(n_mc=10_000, seed=0,
                          combiners=("simes", "fisher", "stouffer",
                                     "bonferroni")):
    """Per-node smoothed-p CDF against the uniform line on the deep tree.

    The pass threshold is multiplicity-adjusted: with thousands of
    (node, threshold) cells whose null marginals sit exactly on the uniform
    line, a fixed 3-sigma cut would trip on noise, so the bound keeps a
    0.1% family-wise budget across all cells instead.

    Every combiner name is parsed first; then one ``superuniformity_check``
    call scores every combiner on each row chunk of the null block, drawn
    once, one chunk at a time.
    """
    _check_items(combiners, "combiners", str)
    parsed = [Combiner.from_name(name) for name in combiners]
    dag = generate_graph("deep-tree")
    ok = True
    lines = []
    results = superuniformity_check(dag, parsed, n_mc, seed)
    cells = dag.m * len(results[0].thresholds) * len(results)
    z_bound = float(normal_quantile(1.0 - 0.001 / cells))
    for name, res in zip(combiners, results):
        z = res.max_excess_z()
        ok = ok and z <= z_bound
        lines.append(f"{name}: max (F_hat - t)/se over nodes = {z:.3f} "
                     f"(bound {z_bound:.2f})")
    return ok, lines


def _random_instance(rng):
    dag = random_dag(rng) if rng.random() < 0.5 else random_tree(rng)
    p = rng.uniform(size=dag.m)
    w = np.exp(rng.normal(0.0, 0.7, size=dag.m))
    kind = rng.choice(["trivial", "ds", "outer", "screen"])
    spec = (FilterSpec("screen", float(rng.uniform(0.2, 1.0)))
            if kind == "screen" else FilterSpec(str(kind)))
    q = float(rng.uniform(0.02, 0.4))
    return dag, p, w, spec, q


def _trials_rng(trials, seed):
    """The generator of a suite's trials, after checking ``trials`` (an
    integer >= 1) and ``seed`` (an integer >= 0) by the count rule."""
    _check_int(trials, "trials", 1)
    _check_int(seed, "seed", 0)
    return np.random.default_rng(seed)


def check_oracle_tstar(trials=1000, seed=0):
    """Optimized threshold scan vs the fresh-evaluation brute force."""
    rng = _trials_rng(trials, seed)
    matches = 0
    for _ in range(trials):
        dag, p, w, spec, q = _random_instance(rng)
        beta = ReshapingFn.by(dag.m) if rng.random() < 0.3 else None
        fast = wfbh(dag, p, w, spec, q, reshaping=beta).t_star
        slow = brute_force_tstar(dag, p, w, spec, q, reshaping=beta)
        matches += fast == slow
    ok = matches == trials
    return ok, [f"{matches}/{trials} exact threshold matches"]


def check_filter_monotonicity(trials=1000, seed=0):
    """Empirical monotonicity of the filters on random nested inputs."""
    rng = _trials_rng(trials, seed)
    failures = {"ds-dag": 0, "outer-tree": 0, "trivial": 0, "screen": 0}
    for _ in range(trials):
        for key, make in (("ds-dag", random_dag), ("outer-tree", random_tree),
                          ("trivial", random_dag), ("screen", random_dag)):
            dag = make(rng)
            spec = {"ds-dag": FilterSpec("ds"),
                    "outer-tree": FilterSpec("outer"),
                    "trivial": FilterSpec("trivial"),
                    "screen": FilterSpec("screen", 0.5)}[key]
            p2 = rng.uniform(size=dag.m)
            p1 = p2 * rng.uniform(size=dag.m)          # p1 <= p2
            r2 = {i for i in range(dag.m) if rng.random() < 0.5}
            extra = {i for i in range(dag.m) if rng.random() < 0.3}
            r1 = r2 | extra                             # r1 >= r2
            if (len(apply_filter(spec, dag, r1, p1))
                    < len(apply_filter(spec, dag, r2, p2))):
                failures[key] += 1
    ok = all(v == 0 for v in failures.values())
    lines = [f"{k}: {trials - v}/{trials} monotone pairs"
             for k, v in failures.items()]
    return ok, lines


def find_outer_counterexample():
    """Exhaustive search for a monotonicity violation of the outer-nodes
    filter on the pinned non-tree DAG (two parents sharing a child)."""
    dag = build_dag(4, [(0, 2), (1, 2), (0, 3)])
    spec = FilterSpec("outer")
    nodes = range(dag.m)
    subsets = []
    for k in range(dag.m + 1):
        subsets.extend(frozenset(c) for c in combinations(nodes, k))
    for r2 in subsets:
        f2 = len(apply_filter(spec, dag, r2))
        for r1 in subsets:
            if r2 < r1 and len(apply_filter(spec, dag, r1)) < f2:
                return dag, r1, r2
    return dag, None, None


def check_outer_counterexample():
    dag, r1, r2 = find_outer_counterexample()
    spec = FilterSpec("outer")
    if r1 is None:
        return False, ["no counterexample found on the pinned DAG"]
    ok = is_monotonic(spec, dag) is False
    lines = [f"R1={sorted(r1)} |F_out|={len(apply_filter(spec, dag, r1))}  "
             f"R2={sorted(r2)} |F_out|={len(apply_filter(spec, dag, r2))}",
             f"is_monotonic(outer, non-tree) = {is_monotonic(spec, dag)}"]
    return ok, lines


def check_procedure_monotonicity(trials=300, seed=0):
    """Raising one p-value never grows the discovery count (monotone filter
    plus the adaptive weights)."""
    rng = _trials_rng(trials, seed)
    bad = 0
    for _ in range(trials):
        dag = random_tree(rng)
        depths = compute_depths(dag)
        groups = group_index(dag, depths)
        p = rng.uniform(size=dag.m)
        cfg = WeightConfig(lam=0.5, c=1, dw="auto")
        spec = FilterSpec(str(rng.choice(["ds", "outer", "trivial"])))
        q = float(rng.uniform(0.05, 0.4))
        u1 = wfbh(dag, p, dag_weights(dag, depths, groups, p, cfg),
                  spec, q).discovery_set
        p2 = p.copy()
        i = int(rng.integers(dag.m))
        p2[i] = min(1.0, p2[i] + rng.uniform(0.0, 1.0))
        u2 = wfbh(dag, p2, dag_weights(dag, depths, groups, p2, cfg),
                  spec, q).discovery_set
        if len(u2) > len(u1):
            bad += 1
    return bad == 0, [f"{trials - bad}/{trials} perturbations monotone"]


SUITES = {
    "condition1": check_condition1,
    "superuniformity": check_superuniformity,
    "oracle-tstar": check_oracle_tstar,
    "monotonicity": check_filter_monotonicity,
    "procedure-monotonicity": check_procedure_monotonicity,
    "outer-monotone-counterexample": check_outer_counterexample,
}
