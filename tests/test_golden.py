"""Byte-for-byte golden outputs of every procedure, through the simulation
harness and through the ``analyze`` CLI.

The files under ``tests/data/`` pin today's outputs exactly: any change to
a threshold, a discovery set, a report or a simulation CSV fails here.  When
an output change is intended, re-record them with
``PYTHONPATH=src python tests/test_golden.py`` and say so in the change.
"""

import io
import os
from pathlib import Path

import pytest

from focusfdr.cli import EXIT_OK, main
from focusfdr.io import write_simulation_csv
from focusfdr.simulate import (GRAPH_FAMILIES, SIGNAL_SETUPS, MethodSpec,
                               SimConfig, run_simulation)

DATA = Path(__file__).resolve().parent / "data"
SIM_GOLDEN = DATA / "golden_simulation.csv"
ANALYZE_GOLDEN = DATA / "golden_analyze"

SIM_METHODS = (MethodSpec("bh"), MethodSpec("storey-bh"), MethodSpec("by"),
               MethodSpec("fbh", "ds"), MethodSpec("wfbh", "ds"),
               MethodSpec("wfbh", "outer"), MethodSpec("wrfbh", "ds"))
TREE_METHODS = SIM_METHODS + (MethodSpec("yekutieli-tree"),)

# (method, reshaping) pairs run by analyze on the golden tree fixture
ANALYZE_CASES = ([(m, None) for m in ("bh", "storey-bh", "by", "fbh", "wfbh",
                                      "wrfbh", "yekutieli-tree")]
                 + [(m, "by") for m in ("fbh", "wfbh", "wrfbh")])


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


def analyze_report(method, reshaping, out_path):
    """Run the CLI from the data directory, so the report's file names are
    the same wherever the tests run."""
    argv = ["analyze", "--dag", "golden_dag.csv",
            "--pvalues", "golden_pvalues.csv", "--method", method,
            "--q", "0.2", "--json-out", str(out_path)]
    if reshaping is not None:
        argv += ["--reshaping", reshaping]
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        assert main(argv) == EXIT_OK
    finally:
        os.chdir(cwd)
    return Path(out_path).read_bytes()


def _case_name(method, reshaping):
    return method if reshaping is None else f"{method}-{reshaping}"


def test_simulation_csv_matches_golden():
    assert simulation_csv() == SIM_GOLDEN.read_bytes()


def test_pooled_simulation_csv_matches_golden():
    assert simulation_csv(n_workers=2) == SIM_GOLDEN.read_bytes()


@pytest.mark.parametrize("method,reshaping", ANALYZE_CASES,
                         ids=[_case_name(*c) for c in ANALYZE_CASES])
def test_analyze_report_matches_golden(method, reshaping, tmp_path):
    got = analyze_report(method, reshaping, tmp_path / "report.json")
    want = (ANALYZE_GOLDEN / f"{_case_name(method, reshaping)}.json")
    assert got == want.read_bytes()


def record():
    SIM_GOLDEN.write_bytes(simulation_csv())
    ANALYZE_GOLDEN.mkdir(exist_ok=True)
    for method, reshaping in ANALYZE_CASES:
        name = _case_name(method, reshaping)
        analyze_report(method, reshaping, ANALYZE_GOLDEN / f"{name}.json")


if __name__ == "__main__":
    record()
