"""Graph helpers the tests share and the library does not need: a deep
random near-tree, per-node child and parent tuples, and a writer of a Dag
back out in the edge-list format."""

import csv

import numpy as np

from focusfdr.dag import build_dag


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


def children(dag):
    """Per-node tuple of children, ascending, from the child CSR."""
    ptr, kids = dag.child_indptr.tolist(), dag.child_indices.tolist()
    return tuple(tuple(kids[a:b]) for a, b in zip(ptr, ptr[1:]))


def parents(dag):
    """Per-node tuple of parents, ascending, from the edges by child."""
    par = dag.edge_parent.tolist()
    return tuple(tuple(par[a:a + n]) for a, n in
                 zip(dag.parent_start.tolist(), dag.in_degree.tolist()))


def export_edge_csv(dag, names, path):
    """Write a Dag back out in the edge-list format: its edges by (parent,
    child), then a ``name,`` row for each node without any edge."""
    ptr = dag.child_indptr
    parent = np.repeat(np.arange(dag.m), np.diff(ptr))
    alone = np.flatnonzero((dag.in_degree == 0) & (ptr[1:] == ptr[:-1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parent", "child"])
        writer.writerows([names[a], names[b]] for a, b in
                         zip(parent.tolist(), dag.child_indices.tolist()))
        writer.writerows([names[v], ""] for v in alone.tolist())
