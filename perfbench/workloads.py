"""The benchmark's workloads: their inputs, operations and output checks.

Each workload is a list of operations, each a call into the public API of
``focusfdr`` that returns an output.  Operations are grouped into kinds;
a kind's time is the sum of its operations' median times divided by the
work units (analyses or replications) they perform.

Inputs are made from one of ``N_VARIANTS`` input variants, chosen as
``seed % N_VARIANTS``, so that every output can be checked against a
reference recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

N_VARIANTS = 16
REL_TOL = 1e-12

WORKLOADS = ("analyze-go", "smooth-rows", "smooth-block", "sim-fixed",
             "sim-random")
# layered-DAG parameters per analyze workload: (target m, depth, stream tag)
GRAPHS = {"analyze-go": (45_000, 14, 1), "smooth-rows": (8_000, 10, 2)}
SMOOTHERS = ("fisher", "stouffer", "simes", "tippett", "bonferroni")
SIM_FAMILIES = {"sim-fixed": ("wide-tree", "deep-tree"),
                "sim-random": ("bipartite1", "bipartite2")}
SIM_METHODS = "wfbh:ds,fbh:ds,wfbh:outer,bh,storey-bh,wrfbh:ds"
SIM_P_GRID = (0.1, 0.3, 0.5)
SIM_REPS = 10
SUPERUNIFORMITY_N_MC = 10_000


@dataclass
class Op:
    """One timed call; ``units`` is the work it does (analyses or reps)."""

    name: str
    kind: str
    run: object
    fingerprint: object
    units: int = 1
    variant: int = 0


@dataclass
class Kind:
    """A reported timing: ``scale`` converts seconds per unit to ``unit``."""

    name: str
    unit: str
    scale: float
    ops: list = field(default_factory=list)


def sim_methods():
    from focusfdr import MethodSpec

    out = []
    for tok in SIM_METHODS.split(","):
        proc, _, filt = tok.partition(":")
        out.append(MethodSpec(proc, filt or "trivial"))
    return tuple(out)


def method_label(spec):
    return spec.procedure if spec.filter == "trivial" else \
        f"{spec.procedure}-{spec.filter}"


def sim_config(family, smoothing, variant):
    from focusfdr import SimConfig

    return SimConfig(family=family, setup="decremental", p_nonnull=SIM_P_GRID,
                     n_reps=SIM_REPS, seed=variant, smoothing=smoothing,
                     methods=sim_methods())


def analysis_request(inputs, filter_name, combiner=None):
    from focusfdr.io import AnalysisRequest

    return AnalysisRequest(dag_file=inputs["dag_file"],
                           pvalues_file=inputs["pvalues_file"], method="wfbh",
                           filter=filter_name, q=0.05, combiner=combiner)


# ---------------------------------------------------------------- checks

def _sha(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _column_fingerprint(values):
    """Floats of one report column, reduced to a weighted sum and a weighted
    log-sum, each compared within 1e-12 of its scale (the sum, and the sum
    of the weights).  So the check is 1e-12 relative on the column as a
    whole, not on each value: on a report of n rows one value may drift by
    up to about 1.5 * n * 1e-12 relative and still pass (about 1e-8 on
    analyze-go's ds report).  Each entry is (value, scale)."""
    h = [1.0 + ((i * 2654435761) % 1000) / 1000.0 for i in range(len(values))]
    pos = [(w, v) for w, v in zip(h, values) if v > 0.0]
    s = math.fsum(w * v for w, v in pos)
    hsum = math.fsum(w for w, _ in pos)
    ls = math.fsum(w * math.log(v) for w, v in pos)
    return {"sum": [s, s], "logsum": [ls, hsum]}, len(values) - len(pos)


def report_fingerprint(report):
    """Everything in an analyze report except the input file paths."""
    rows = report["discoveries"]
    exact = {
        "counts": report["counts"],
        "filter_monotonic": report["filter_monotonic"],
        "structure": _sha(report["structure"]),
        "node_ids": _sha(report["node_ids"]),
        "rows": _sha([[r["node"], r["id"], r["depth"]] for r in rows]),
    }
    floats = {"t_star": [report["t_star"], abs(report["t_star"])],
              "fdp_hat": [report["fdp_hat_at_t_star"],
                          abs(report["fdp_hat_at_t_star"])]}
    for col in ("p", "p_used", "weight", "weighted_p"):
        fp, zeros = _column_fingerprint([r[col] for r in rows])
        exact[f"{col}_zeros"] = zeros
        for key, val in fp.items():
            floats[f"{col}_{key}"] = val
    return {"exact": exact, "float": floats}


def csv_fingerprint(text):
    return {"exact": {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                      "lines": text.count("\n")}, "float": {}}


def mismatches(ref, got):
    """Names of the fingerprint entries where ``got`` differs from ``ref``."""
    bad = [k for k in ref["exact"] if got["exact"].get(k) != ref["exact"][k]]
    for k, (val, scale) in ref["float"].items():
        other = got["float"].get(k, [math.nan])[0]
        if not abs(other - val) <= REL_TOL * abs(scale):
            bad.append(k)
    return bad


# ---------------------------------------------------------------- workloads

def _analyze_op(name, kind, inputs, filter_name, combiner=None):
    from focusfdr import io as fio

    def run():
        report = fio.analyze(analysis_request(inputs, filter_name, combiner))
        fio.write_report_json(report, io.StringIO())
        return report

    return Op(name, kind, run, report_fingerprint)


def _superuniformity_op(variant):
    from focusfdr.checks import check_superuniformity

    def run():
        return check_superuniformity(n_mc=SUPERUNIFORMITY_N_MC, seed=variant)

    def fingerprint(out):
        ok, lines = out
        return {"exact": {"ok": ok, "lines": list(lines)}, "float": {}}

    return Op("superuniformity", "superuniformity_s", run, fingerprint)


def _sim_op(family, smoothing, kind, variant):
    from focusfdr import run_simulation
    from focusfdr.io import write_simulation_csv

    config = sim_config(family, smoothing, variant)

    def run():
        summary = run_simulation(config)
        buf = io.StringIO()
        write_simulation_csv(summary, buf)
        return summary, buf.getvalue()

    name = f"{family}-{smoothing or 'raw'}"
    return Op(name, kind, run, lambda out: csv_fingerprint(out[1]),
              units=SIM_REPS * len(SIM_P_GRID))


def build(workload, inputs):
    """(ops, kinds) of a workload over already generated ``inputs``."""
    variant = inputs["variant"]
    if workload == "analyze-go":
        ops = [_analyze_op("ds", "analyze_ds_ms", inputs, "ds"),
               _analyze_op("outer", "analyze_outer_ms", inputs, "outer")]
        kinds = [Kind("analyze_ds_ms", "ms", 1e3),
                 Kind("analyze_outer_ms", "ms", 1e3)]
    elif workload == "smooth-rows":
        ops = [_analyze_op(c, f"smooth_{c}_ms", inputs, "ds", c)
               for c in SMOOTHERS]
        kinds = [Kind(f"smooth_{c}_ms", "ms", 1e3) for c in SMOOTHERS]
    elif workload == "smooth-block":
        ops = [_superuniformity_op(variant)]
        kinds = [Kind("superuniformity_s", "s", 1.0)]
    elif workload in SIM_FAMILIES:
        raw = "sim_" + workload.split("-")[1] + "_ms_per_rep"
        ops = [_sim_op(family, smoothing,
                       "sim_smoothed_ms_per_rep" if smoothing else raw,
                       variant)
               for smoothing in (None, "simes")
               for family in SIM_FAMILIES[workload]]
        kinds = [Kind(raw, "ms/rep", 1e3),
                 Kind("sim_smoothed_ms_per_rep", "ms/rep", 1e3)]
    else:
        raise KeyError(workload)
    by_name = {k.name: k for k in kinds}
    for op in ops:
        op.variant = variant
        by_name[op.kind].ops.append(op)
    return ops, kinds


def generate(workload, workdir, variant):
    """Write the workload's input files into ``workdir``; returns their
    description (m, edge count and depth for the layered DAGs)."""
    import numpy as np

    import gen

    inputs = {"variant": variant}
    if workload in GRAPHS:
        m, depth, tag = GRAPHS[workload]
        inputs.update(gen.write_inputs(
            workdir, np.random.default_rng([variant, tag]), m, depth))
    return inputs
