"""Memory guards for ``io.analyze`` and ``io.write_report_json``, by
``tracemalloc``.

``analyze`` drops each stage's data once no later stage reads it, so its
traced peak, less the report it returns, stays a few hundred bytes a node
on a multi-level DAG.  The writer encodes a block of items at a time and
writes it as made, so what it allocates on the way, writing to a stream
that keeps nothing, stays below the text it writes once the report is
large."""

import gc
import tracemalloc

import numpy as np
import pytest

from focusfdr import assign_truth, build_dag, compute_depths, sample_pvalues
import focusfdr.io as focusfdr_io
from focusfdr.io import AnalysisRequest, analyze, write_report_json

BLOCK = focusfdr_io._BLOCK
# analyze's traced peak less its report, in bytes a node: ~155 on the
# graph below (13 levels, 24,573 nodes), ~250 when the structure summary
# was computed last and the plan held to the end
EXCESS_PER_NODE = 200


def layered_edges(rng, levels):
    """(m, edges) of a DAG whose level d has 3 * 2**d nodes: each node
    below the roots has a parent on the level above and, 4 times in 10,
    another on any level above."""
    starts = np.concatenate(([0], np.cumsum(3 * 2 ** np.arange(levels))))
    child = np.arange(starts[1], starts[-1])
    level = np.searchsorted(starts, child, side="right") - 1
    above = rng.integers(starts[level - 1], starts[level])
    other = rng.random(child.size) < 0.4
    parent = np.concatenate([above, rng.integers(0, starts[level])[other]])
    edges = np.unique(np.stack([parent, np.concatenate([child, child[other]])],
                               axis=1), axis=0)
    return int(starts[-1]), edges


@pytest.fixture(scope="module")
def go_like(tmp_path_factory):
    """An analysis request over edge and p-value files of a 13-level DAG,
    with hereditary non-nulls, and its node count."""
    rng = np.random.default_rng(0)
    m, edges = layered_edges(rng, 13)
    dag = build_dag(m, edges)
    p = sample_pvalues(dag, compute_depths(dag), assign_truth(dag, 0.3, rng),
                       "incremental", 0.0, rng)
    names = [f"GO:{k:07d}" for k in range(m)]
    folder = tmp_path_factory.mktemp("go_like")
    dag_file, pvalues_file = folder / "edges.csv", folder / "p.csv"
    dag_file.write_text("parent,child\n" + "".join(
        f"{names[a]},{names[b]}\n" for a, b in edges.tolist()))
    pvalues_file.write_text("node,p\n" + "".join(
        f"{name},{value!r}\n" for name, value in zip(names, p.tolist())))
    return AnalysisRequest(dag_file=str(dag_file),
                           pvalues_file=str(pvalues_file)), m


class Counter:
    """A text stream that keeps nothing but the number of characters."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def traced(call, *args):
    """(result, peak, held): what ``call`` returns, and the bytes traced at
    its peak and at its end, above what was traced before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, held - before


def test_analyze_holds_no_stage_past_its_last_reader(go_like):
    request, m = go_like
    report, peak, held = traced(analyze, request)
    assert len(report["node_ids"]) == m and len(report["discoveries"]) > 0
    assert peak - held < EXCESS_PER_NODE * m, (peak - held) / m


def test_writer_allocates_less_than_it_writes():
    # ~2.0 M characters for ~0.66 bytes allocated a character (~2.6 when
    # the report was encoded whole): a block of rows is encoded at a time
    n = 16 * BLOCK
    report = {"node_ids": {f"GO:{k:07d}": k for k in range(n)},
              "discoveries": [{"node": f"GO:{k:07d}", "id": k, "depth": 9,
                               "p": k / 3e5, "p_used": k / 3e5,
                               "weight": 0.7, "weighted_p": k / 3e5 * 0.7}
                              for k in range(n // 2)]}
    stream = Counter()
    _, peak, _ = traced(write_report_json, report, stream)
    assert stream.chars > 2 * 10**6
    assert peak < stream.chars, peak / stream.chars
