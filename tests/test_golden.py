"""Byte-for-byte golden outputs of every procedure, through the simulation
harness and through the ``analyze`` CLI, and the library's in-memory
analysis checked against the same reports.

The files under ``tests/data/`` pin today's outputs exactly: any change to
a threshold, a discovery set, a report or a simulation CSV fails here.  When
an output change is intended, re-record them with
``PYTHONPATH=src python tests/test_golden.py`` and say so in the change.
"""

import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from focusfdr import (ProcedureResult, RunParams, StructurePlan,
                      run_procedure, smooth_all_descendants)
from focusfdr.cli import EXIT_OK, main
from focusfdr.io import read_dag, read_pvalue_csv, write_simulation_csv
from focusfdr.simulate import (GRAPH_FAMILIES, SIGNAL_SETUPS, MethodSpec,
                               SimConfig, run_simulation)

DATA = Path(__file__).resolve().parent / "data"
SIM_GOLDEN = DATA / "golden_simulation.csv"
ANALYZE_GOLDEN = DATA / "golden_analyze"

SIM_METHODS = (MethodSpec("bh"), MethodSpec("storey-bh"), MethodSpec("by"),
               MethodSpec("fbh", "ds"), MethodSpec("wfbh", "ds"),
               MethodSpec("wfbh", "outer"), MethodSpec("wrfbh", "ds"))
TREE_METHODS = SIM_METHODS + (MethodSpec("yekutieli-tree"),)

# (report name, analyze flags) of each run on the golden tree fixture: every
# method, every focused one BY-reshaped, then wfbh (the default method) under
# the outer filter, under two smoothings, and in intersection mode
NODE_P = ["--pvalues", "golden_pvalues.csv"]
ANALYZE_CASES = (
    [(m, NODE_P + ["--method", m])
     for m in ("bh", "storey-bh", "by", "fbh", "wfbh", "wrfbh",
               "yekutieli-tree")]
    + [(f"{m}-by", NODE_P + ["--method", m, "--reshaping", "by"])
       for m in ("fbh", "wfbh", "wrfbh")]
    + [("wfbh-outer", NODE_P + ["--filter", "outer"]),
       ("wfbh-simes", NODE_P + ["--smoothing", "simes"]),
       ("wfbh-fisher", NODE_P + ["--smoothing", "fisher"]),
       ("wfbh-items", ["--pvalues", "golden_item_pvalues.csv",
                       "--items", "golden_annotations.csv"])])


def golden_sim_configs():
    """Every family x setup with every procedure (the top-down baseline on
    the tree families only), plus one dependent and one smoothed sweep."""
    for family in GRAPH_FAMILIES:
        methods = TREE_METHODS if family.endswith("tree") else SIM_METHODS
        for setup in SIGNAL_SETUPS:
            yield SimConfig(family=family, setup=setup, p_nonnull=(0.1, 0.5),
                            n_reps=3, seed=11, methods=methods)
    yield SimConfig(family="bipartite2", setup="decremental", rho=0.4,
                    lambda_policy="q", p_nonnull=(0.3,), n_reps=3, seed=12,
                    methods=SIM_METHODS)
    yield SimConfig(family="deep-tree", setup="decremental", smoothing="simes",
                    p_nonnull=(0.3,), n_reps=3, seed=13, methods=TREE_METHODS)


def simulation_csv(n_workers=None):
    out = io.StringIO(newline="")
    for config in golden_sim_configs():
        write_simulation_csv(run_simulation(config, n_workers=n_workers), out)
    return out.getvalue().encode("utf-8")


def analyze_report(flags, out_path):
    """Run the CLI from the data directory, so the report's file names are
    the same wherever the tests run."""
    argv = (["analyze", "--dag", "golden_dag.csv", "--q", "0.2",
             "--json-out", str(out_path)] + flags)
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        assert main(argv) == EXIT_OK
    finally:
        os.chdir(cwd)
    return Path(out_path).read_bytes()


def test_simulation_csv_matches_golden():
    assert simulation_csv() == SIM_GOLDEN.read_bytes()


def test_pooled_simulation_csv_matches_golden():
    assert simulation_csv(n_workers=2) == SIM_GOLDEN.read_bytes()


@pytest.mark.parametrize("name,flags", ANALYZE_CASES,
                         ids=[name for name, _ in ANALYZE_CASES])
def test_analyze_report_matches_golden(name, flags, tmp_path):
    got = analyze_report(flags, tmp_path / "report.json")
    assert got == (ANALYZE_GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name,flags", ANALYZE_CASES,
                         ids=[name for name, _ in ANALYZE_CASES])
def test_analyze_counts_base_set_without_building_it(name, flags, tmp_path,
                                                     monkeypatch):
    # the report counts the base set from its mask: the set of ids is
    # never built
    def unbuilt(result):
        raise AssertionError("base_set built")
    monkeypatch.setattr(ProcedureResult, "base_set", property(unbuilt))
    got = analyze_report(flags, tmp_path / "report.json")
    assert got == (ANALYZE_GOLDEN / f"{name}.json").read_bytes()


NODE_P_CASES = [(name, flags) for name, flags in ANALYZE_CASES
                if "--items" not in flags]


@pytest.mark.parametrize("name,flags", NODE_P_CASES,
                         ids=[name for name, _ in NODE_P_CASES])
def test_in_memory_run_matches_golden_report(name, flags):
    # RunParams.resolve -> read_dag / read_pvalue_csv -> smoothing ->
    # StructurePlan -> run_procedure, the sequence io.analyze runs
    opts = dict(zip(flags[::2], flags[1::2]))
    params = RunParams(q=0.2)
    weight_config, [(method, fspec, reshaped)], combiner = params.resolve(
        [(opts.get("--method", "wfbh"), opts.get("--filter", "ds"),
          opts.get("--reshaping") == "by")], opts.get("--smoothing"))
    _, name_to_id, dag = read_dag(DATA / "golden_dag.csv")
    p = read_pvalue_csv(DATA / opts["--pvalues"], name_to_id)
    if combiner is not None:
        p = smooth_all_descendants(dag, p, combiner)
    result = run_procedure(StructurePlan(dag, weight_config), p, method,
                           fspec, params.q, reshaped, params.yk_divisor)

    report = json.loads((ANALYZE_GOLDEN / f"{name}.json").read_text())
    assert result.t_star == report["t_star"]
    assert result.fdp_hat_at_tstar == report["fdp_hat_at_t_star"]
    assert report["counts"] == {"base": len(result.base_set),
                                "discoveries": len(result.discovery_set)}
    rows = sorted(report["discoveries"], key=lambda row: row["id"])
    ids = np.flatnonzero(result.found)
    assert [row["id"] for row in rows] == ids.tolist()
    assert [row["weight"] for row in rows] == result.weights_used[ids].tolist()


def record():
    SIM_GOLDEN.write_bytes(simulation_csv())
    ANALYZE_GOLDEN.mkdir(exist_ok=True)
    for name, flags in ANALYZE_CASES:
        analyze_report(flags, ANALYZE_GOLDEN / f"{name}.json")


if __name__ == "__main__":
    record()
