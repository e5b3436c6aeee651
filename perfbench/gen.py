"""Seeded layered-DAG generator for the analyze workloads.

Level sizes grow geometrically from a few roots; every non-root node takes
1-3 distinct parents, the first always from the level directly above (so a
node's depth is its level), the rest mostly from that level too and
otherwise from a shallower one (skip-level edges).  Truth comes from
``assign_truth`` and p-values from ``sample_pvalues``, so heredity holds.
"""

from __future__ import annotations

import csv
import os

import numpy as np

N_PARENTS = (1, 2, 3)
N_PARENTS_PROB = (0.55, 0.30, 0.15)
SAME_LEVEL_PROB = 0.8


def level_sizes(m_target, depth, roots):
    """Geometric level sizes starting at ``roots`` that sum to ~m_target."""
    lo, hi = 1.0, 10.0
    for _ in range(100):
        r = (lo + hi) / 2
        total = sum(roots * r ** d for d in range(depth))
        lo, hi = (r, hi) if total < m_target else (lo, r)
    return [max(1, round(roots * lo ** d)) for d in range(depth)]


def layered_edges(rng, sizes):
    """Edge list over ids numbered level by level."""
    starts = np.concatenate(([0], np.cumsum(sizes)))
    edges = []
    for d in range(1, len(sizes)):
        for v in range(int(starts[d]), int(starts[d + 1])):
            k = int(rng.choice(N_PARENTS, p=N_PARENTS_PROB))
            parents = {int(rng.integers(starts[d - 1], starts[d]))}
            while len(parents) < min(k, int(starts[d])):
                lvl = d - 1
                if d >= 2 and rng.random() >= SAME_LEVEL_PROB:
                    lvl = int(rng.integers(0, d - 1))
                parents.add(int(rng.integers(starts[lvl], starts[lvl + 1])))
            edges.extend((p, v) for p in sorted(parents))
    return int(starts[-1]), edges


def write_inputs(workdir, rng, m_target, depth, roots=3, p_nonnull=0.05,
                 setup="incremental"):
    """Write ``edges.csv`` and ``pvalues.csv`` into ``workdir``; returns the
    file paths plus m, edge count, depth and non-null count."""
    from focusfdr import assign_truth, build_dag, compute_depths, sample_pvalues

    m, edges = layered_edges(rng, level_sizes(m_target, depth, roots))
    dag = build_dag(m, edges)
    depths = compute_depths(dag)
    truth = assign_truth(dag, p_nonnull, rng)
    p = sample_pvalues(dag, depths, truth, setup, 0.0, rng)

    names = [f"GO:{k:07d}" for k in rng.permutation(m)]
    edge_path = os.path.join(workdir, "edges.csv")
    pval_path = os.path.join(workdir, "pvalues.csv")
    with open(edge_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["parent", "child"])
        for i in rng.permutation(len(edges)):
            a, b = edges[i]
            w.writerow([names[a], names[b]])
    with open(pval_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "p"])
        for v in rng.permutation(m):
            w.writerow([names[v], repr(float(p[v]))])
    return {"dag_file": edge_path, "pvalues_file": pval_path, "m": m,
            "edges": len(edges), "depth": depths.max_depth,
            "nonnull": len(truth)}
