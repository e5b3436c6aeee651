"""End-to-end tests for the file formats and the command-line interface."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import focusfdr.cli as cli_module
from focusfdr.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from focusfdr.checks import SUITES
from focusfdr.dag import Dag, build_dag, compute_depths, group_index
from focusfdr.filters import FilterSpec, apply_filter
from focusfdr.io import (AnalysisRequest, MissingPvalueError, ParseError,
                         UnknownNodeInPvaluesError, analyze, export_edge_csv,
                         read_dag, read_edge_csv, read_pvalue_csv,
                         structure_summary)
from focusfdr.procedures import RunParams
from focusfdr.simulate import (MethodSpec, SimConfig, SimSummary,
                               generate_graph, run_simulation)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def chain_files(tmp_path):
    dag = write(tmp_path / "chain.csv", "parent,child\na,b\nb,c\n")
    pv = write(tmp_path / "p.csv", "node,p\na,0.01\nb,0.02\nc,0.03\n")
    return dag, pv


def test_read_edge_csv_names_in_first_appearance_order(chain_files):
    names, ids, edges = read_edge_csv(chain_files[0])
    assert names == ["a", "b", "c"]
    assert edges.tolist() == [[0, 1], [1, 2]]


def test_read_edge_csv_errors(tmp_path):
    with pytest.raises(ParseError):
        read_edge_csv(write(tmp_path / "e1.csv", "from,to\na,b\n"))
    with pytest.raises(ParseError):
        read_edge_csv(write(tmp_path / "e2.csv", "parent,child\n"))
    with pytest.raises(ParseError):
        read_edge_csv(write(tmp_path / "e3.csv", "parent,child\na,b,c\n"))


def test_read_pvalue_errors(tmp_path, chain_files):
    _, ids, _ = read_edge_csv(chain_files[0])
    with pytest.raises(MissingPvalueError):
        read_pvalue_csv(write(tmp_path / "m.csv", "node,p\na,0.1\nb,0.2\n"), ids)
    with pytest.raises(UnknownNodeInPvaluesError):
        read_pvalue_csv(write(tmp_path / "u.csv",
                              "node,p\na,0.1\nb,0.2\nc,0.3\nzz,0.4\n"), ids)
    with pytest.raises(ParseError):
        read_pvalue_csv(write(tmp_path / "d.csv",
                              "node,p\na,0.1\na,0.2\nb,0.3\nc,0.4\n"), ids)


def test_analyze_chain_wfbh(chain_files):
    report = analyze(AnalysisRequest(dag_file=chain_files[0],
                                     pvalues_file=chain_files[1],
                                     method="wfbh", filter="ds", q=0.1))
    assert report["counts"]["discoveries"] == 3
    assert report["t_star"] == pytest.approx(0.03)
    assert [row["node"] for row in report["discoveries"]] == ["a", "b", "c"]
    assert report["structure"]["is_tree"] is True
    assert report["structure"]["disjoint_descendant_depths"] == [1, 2, 3]
    assert report["filter_monotonic"] is True


def test_analyze_bh_ignores_structure_but_validates(chain_files, tmp_path):
    report = analyze(AnalysisRequest(dag_file=chain_files[0],
                                     pvalues_file=chain_files[1],
                                     method="bh", filter="trivial", q=0.1))
    assert report["counts"]["discoveries"] == 3
    bad = write(tmp_path / "bad.csv", "node,p\na,0.01\n")
    with pytest.raises(MissingPvalueError):
        analyze(AnalysisRequest(dag_file=chain_files[0], pvalues_file=bad,
                                method="bh"))


def test_analyze_smoothing_and_reshaping(chain_files):
    rep = analyze(AnalysisRequest(dag_file=chain_files[0],
                                  pvalues_file=chain_files[1],
                                  method="wrfbh", filter="ds", q=0.2,
                                  combiner="simes"))
    assert rep["parameters"]["combiner"] == "simes"
    assert rep["counts"]["discoveries"] >= 0


def test_analyze_intersection_mode(tmp_path):
    dag = write(tmp_path / "dag.csv", "parent,child\ntop,leaf\n")
    items = write(tmp_path / "ann.csv",
                  "node,item\ntop,g1\ntop,g2\nleaf,g2\n")
    itemp = write(tmp_path / "itemp.csv", "item,p\ng1,0.5\ng2,0.5\n")
    rep = analyze(AnalysisRequest(dag_file=dag, pvalues_file=itemp,
                                  items_file=items, method="bh", q=0.9,
                                  combiner="fisher"))
    by_node = {r["node"]: r for r in rep["discoveries"]}
    assert by_node["top"]["p"] == pytest.approx(0.5965735902799727, abs=1e-12)
    assert by_node["leaf"]["p"] == pytest.approx(0.5)


def test_cli_analyze_json_and_csv(chain_files, tmp_path, capsys):
    json_out = tmp_path / "report.json"
    csv_out = tmp_path / "disc.csv"
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--method", "wfbh",
                 "--filter", "ds", "--q", "0.1",
                 "--json-out", str(json_out), "--csv-out", str(csv_out)])
    assert code == EXIT_OK
    report = json.loads(json_out.read_text())
    assert report["counts"] == {"base": 3, "discoveries": 3}
    with open(csv_out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["node"] for r in rows] == ["a", "b", "c"]
    assert float(rows[0]["weighted_p"]) == pytest.approx(0.01)


def test_cli_analyze_explicit_dw(chain_files, tmp_path):
    json_out = tmp_path / "dw.json"
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--method", "wfbh",
                 "--dw", "1,2", "--json-out", str(json_out)])
    assert code == EXIT_OK
    report = json.loads(json_out.read_text())
    assert report["parameters"]["dw"] == [1, 2]


def test_cli_analyze_missing_pvalue_exits_2(chain_files, tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "node,p\na,0.01\nb,0.02\n")
    code = main(["analyze", "--dag", chain_files[0], "--pvalues", bad])
    assert code == EXIT_INPUT
    assert "missing p-value" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    "a,0.01\nb,nan\nc,0.03\n",
    "a,0.01\nb,nan\nb,0.3\nc,0.03\n",
    "a,0.01\nb,1.5\nc,0.03\n",
    "a,0.01\nb,-inf\nc,0.03\n",
])
def test_cli_analyze_invalid_pvalue_exits_2_with_line(chain_files, tmp_path,
                                                      capsys, rows):
    bad = write(tmp_path / "bad.csv", "node,p\n" + rows)
    code = main(["analyze", "--dag", chain_files[0], "--pvalues", bad])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err and "not in [0, 1]" in err


def test_cli_analyze_stouffer_undefined_names_node(tmp_path):
    # the segments of z and w hold both a 0 and a 1: a 0 wins, as for
    # Fisher, so both are smoothed to exactly 0.0 and discovered
    dag = write(tmp_path / "dag.csv", "parent,child\nx,y\nz,w\nw,v\n")
    pv = write(tmp_path / "p.csv",
               "node,p\nx,0.5\ny,0.2\nz,0.4\nw,0.0\nv,1.0\n")
    out = tmp_path / "report.json"
    code = main(["analyze", "--dag", dag, "--pvalues", pv,
                 "--smoothing", "stouffer", "--json-out", str(out)])
    assert code == EXIT_OK
    found = {r["node"]: r["p_used"]
             for r in json.loads(out.read_text())["discoveries"]}
    assert found == {"z": 0.0, "w": 0.0}


@pytest.mark.parametrize("command", ["analyze", "graph-info"])
@pytest.mark.parametrize("rows,message", [
    ("a,b\nb,c\na,b\n", ":4: duplicate edge 'a' -> 'b'"),
    ("a,b\nc,c\n", ":3: self-loop at node 'c'"),
])
def test_cli_edge_list_errors_name_line_and_nodes(tmp_path, capsys, command,
                                                  rows, message):
    dag = write(tmp_path / "e.csv", "parent,child\n" + rows)
    pv = write(tmp_path / "p.csv", "node,p\na,0.1\nb,0.2\nc,0.3\n")
    argv = [command, "--dag", dag]
    if command == "analyze":
        argv += ["--pvalues", pv]
    assert main(argv) == EXIT_INPUT
    assert f"{dag}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "graph-info"])
def test_cli_cycle_names_file_and_a_node_on_it(tmp_path, capsys, command):
    # d is not on the cycle c -> a -> b -> c but sorts first among the
    # nodes left unordered; the reported node must lie on the cycle
    dag = write(tmp_path / "cyc.csv",
                "parent,child\nr,d\nc,d\na,b\nb,c\nc,a\n")
    pv = write(tmp_path / "p.csv",
               "node,p\nr,0.1\nd,0.1\na,0.1\nb,0.1\nc,0.1\n")
    argv = [command, "--dag", dag]
    if command == "analyze":
        argv += ["--pvalues", pv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{dag}: edge set contains a directed cycle through node" in err
    assert err.rstrip().endswith(("'a'", "'b'", "'c'"))


@pytest.mark.parametrize("dw", ["7", "0", "1,4"])
def test_cli_analyze_rejects_dw_outside_graph_depths(chain_files, capsys, dw):
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--dw", dw])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    bad = [d for d in dw.split(",") if not 1 <= int(d) <= 3][0]
    assert f"dw depth {bad} is outside [1, 3]" in err
    assert "max depth 3" in err


def test_cli_analyze_bad_screen_threshold_names_flag(chain_files, capsys):
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--filter", "screen:abc"])
    assert code == EXIT_INPUT
    assert "filter 'screen:abc'" in capsys.readouterr().err


def test_cli_analyze_bad_lambda_policy_names_flag(chain_files, capsys):
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--lambda-policy", "fixed:abc"])
    assert code == EXIT_INPUT
    assert "lambda policy 'fixed:abc'" in capsys.readouterr().err


def test_cli_simulate_bad_lambda_policy_names_flag(tmp_path, capsys):
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "1", "--lambda-policy", "fixed:abc",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_INPUT
    assert "lambda policy 'fixed:abc'" in capsys.readouterr().err


@pytest.fixture
def no_replication(monkeypatch):
    import focusfdr.simulate as sim

    def replicate(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_run_block", replicate)


@pytest.mark.parametrize("policy", ["fixed:1.5", "fixed:1", "fixed:0",
                                    "fixed:-0.2"])
@pytest.mark.parametrize("method", ["fbh", "wfbh", "bh"])
def test_cli_analyze_rejects_lambda_outside_unit_interval(chain_files, capsys,
                                                          policy, method):
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--method", method,
                 "--lambda-policy", policy])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "error: lambda must be in (0, 1), got " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("policy", ["fixed:7", "fixed:1", "fixed:0"])
@pytest.mark.parametrize("methods", ["bh", "wfbh:ds"])
def test_cli_simulate_rejects_lambda_outside_unit_interval(
        no_replication, tmp_path, capsys, policy, methods):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "2", "--methods", methods,
                 "--lambda-policy", policy, "--out", str(out)])
    assert code == EXIT_INPUT
    assert "error: lambda must be in (0, 1), got " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, max_depth, dw", [
    ("wide-tree", 2, "7"), ("wide-tree", 2, "1,3"), ("deep-tree", 3, "4"),
    ("bipartite1", 2, "0"), ("bipartite2", 2, "2,3")])
def test_cli_simulate_rejects_dw_outside_family_depths(
        no_replication, tmp_path, capsys, family, max_depth, dw):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--family", family, "--p", "0.3", "--reps", "2",
                 "--dw", dw, "--out", str(out)])
    assert code == EXIT_INPUT
    bad = [d for d in dw.split(",") if not 1 <= int(d) <= max_depth][0]
    assert (f"error: dw depth {bad} is outside [1, {max_depth}]: graph "
            f"family {family!r} has max depth {max_depth}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("dw", [[1.5], [True], [1, 0.5]])
def test_cli_simulate_rejects_non_integer_dw_depth(no_replication, tmp_path,
                                                   capsys, dw):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"family": "wide-tree", "dw": dw}))
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--reps", "2",
                 "--out", str(out)]) == EXIT_INPUT
    bad = [d for d in dw if d is True or d != int(d)][0]
    assert (f"error: dw depth {bad!r} is not an integer: graph family "
            f"'wide-tree' has depths 1 to 2" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("q", ["0", "1", "1.5", "-0.1", "nan"])
@pytest.mark.parametrize("methods", ["bh", "wfbh:ds,yekutieli-tree"])
def test_cli_simulate_rejects_q_outside_unit_interval(
        no_replication, tmp_path, capsys, q, methods):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "2", "--methods", methods, "--q", q,
                 "--out", str(out)])
    assert code == EXIT_INPUT
    assert ("error: target FDR level must be in (0, 1), got "
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--p", "0.1,0.1"], "p_nonnull: 0.1 is repeated"),
    (["--methods", "bh,bh"], "methods: 'bh+trivial' is repeated"),
    (["--methods", "bh,bh:trivial"], "methods: 'bh+trivial' is repeated"),
], ids=["p", "methods", "methods-default-filter"])
def test_cli_simulate_rejects_repeated_cells(no_replication, tmp_path, capsys,
                                             flags, message):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--reps", "2", *flags, "--out", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("family", ["bipartite1", "bipartite2"])
def test_cli_simulate_rejects_top_down_on_bipartite_family(
        no_replication, tmp_path, capsys, family):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--family", family, "--p", "0.3", "--reps", "2",
                 "--methods", "bh,yekutieli-tree", "--out", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: graph family {family!r} draws no trees, and the top-down "
        "baseline requires a tree\n")
    assert not out.exists()


def test_cli_analyze_rejects_top_down_on_non_tree_before_reading_p(
        tmp_path, capsys):
    # the p-value file does not exist: the graph is checked first
    dag = write(tmp_path / "dag.csv", "parent,child\na,c\nb,c\n")
    code = main(["analyze", "--dag", dag, "--pvalues",
                 str(tmp_path / "missing.csv"), "--method", "yekutieli-tree"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {dag}: the top-down baseline requires a tree, but node 'c' "
        "has 2 parents\n")


@pytest.mark.parametrize("q, divisor", [("3", "2.88"), ("0.05", "0.01"),
                                        ("0", "2.88"), ("nan", "2.88")])
def test_cli_simulate_rejects_yekutieli_level_outside_unit_interval(
        no_replication, tmp_path, capsys, q, divisor):
    # the top-down baseline runs at level q / yk-divisor, which is checked
    # in place of q
    out = tmp_path / "s.csv"
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "2", "--methods", "yekutieli-tree", "--q", q,
                 "--yk-divisor", divisor, "--out", str(out)])
    assert code == EXIT_INPUT
    assert ("error: yekutieli-tree level q / yk-divisor must be in (0, 1)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--q", "1.5", "target FDR level must be in (0, 1), got 1.5"),
    ("--filter", "bogus", "unknown filter kind 'bogus'"),
    ("--filter", "screen:abc", "filter 'screen:abc'"),
    ("--smoothing", "bogus", "unknown combiner 'bogus'"),
    ("--smoothing", "orderstat:x", "combiner 'orderstat:x': order statistic "
                                   "index 'x' is not an integer >= 1"),
    ("--smoothing", "orderstat:0", "combiner 'orderstat:0'"),
    ("--dw", "1,x", "--dw: 'x' is not a valid int"),
])
@pytest.mark.parametrize("items", [False, True])
def test_cli_analyze_checks_flags_before_reading_files(tmp_path, capsys,
                                                       flag, value, message,
                                                       items):
    argv = ["analyze", "--dag", str(tmp_path / "missing.csv"),
            "--pvalues", str(tmp_path / "missing_p.csv"), flag, value]
    if items:
        argv += ["--items", str(tmp_path / "missing_items.csv")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert message in err and "missing" not in err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected a JSON object of simulation fields, got list"),
    ('"wide-tree"', "expected a JSON object of simulation fields, got str"),
    ('{"family": "wide-tree", "bogus": 1}', "unknown field 'bogus'"),
])
def test_cli_simulate_rejects_bad_config_file(no_replication, tmp_path,
                                              capsys, text, message):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(text)
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--reps", "2",
                 "--out", str(out)]) == EXIT_INPUT
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


METHODS_TYPE = ('must be a list of {"procedure", "filter"} objects or '
                "[procedure, filter] lists")


@pytest.mark.parametrize("text, flags, message", [
    ('{"methods": [{"proc": "bh"}]}', [],
     "{cfg}: field 'methods' " + METHODS_TYPE + ', got [{"proc": "bh"}]'),
    ('{"methods": [["bh", "ds", "x"]]}', [],
     "{cfg}: field 'methods' " + METHODS_TYPE + ', got [["bh", "ds", "x"]]'),
    ('{"methods": ["bh"]}', [],
     "{cfg}: field 'methods' " + METHODS_TYPE + ', got ["bh"]'),
    ('{"p_nonnull": 0.3}', [],
     "{cfg}: field 'p_nonnull' must be a list of numbers, got 0.3"),
    ('{"dw": 2}', [],
     """{cfg}: field 'dw' must be "auto", "none" or a list of depths, got 2"""),
    ('{"seed": 1.5}', [], "{cfg}: field 'seed' must be an integer, got 1.5"),
    ('{"rho": "0.1"}', [],
     '{cfg}: field \'rho\' must be a number, got "0.1"'),
    ('{"family": ', [], "{cfg}: Expecting value: line 1 column 12"),
    ('{"p_nonnull": []}', [],
     "p_nonnull: need a non-empty list or tuple, got ()"),
    ("{}", ["--p", ","], "p_nonnull: need a non-empty list or tuple, got ()"),
    ('{"methods": []}', [],
     "methods: need a non-empty list or tuple of MethodSpec, got ()"),
], ids=["method-key", "method-length", "method-string", "p-scalar",
        "dw-scalar", "seed-float", "rho-string", "json-syntax", "p-empty",
        "p-flag-empty", "methods-empty"])
def test_cli_simulate_rejects_bad_config_value(no_replication, tmp_path,
                                               capsys, text, flags, message):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(text)
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--reps", "2",
                 "--out", str(out), *flags]) == EXIT_INPUT
    assert ("error: " + message.replace("{cfg}", str(cfg))
            in capsys.readouterr().err)
    assert not out.exists()


def test_cli_config_types_cover_every_simulation_field():
    assert list(cli_module._CONFIG_TYPES) == [f.name for f in
                                              fields(SimConfig)]


@pytest.mark.parametrize("flag, value, message", [
    ("--p", "0.1,x", "--p: 'x' is not a valid float"),
    ("--p", "0.1, 3 x", "--p: '3 x' is not a valid float"),
    ("--dw", "1,x", "--dw: 'x' is not a valid int"),
    ("--methods", ",", "--methods: no methods given"),
])
def test_cli_simulate_names_bad_list_flag(no_replication, tmp_path, capsys,
                                          flag, value, message):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--family", "wide-tree", "--reps", "2", flag,
                 value, "--out", str(out)]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_non_integer_dw_depth(chain_files):
    with pytest.raises(ValueError, match="dw depth 1.5 is not an integer"):
        analyze(AnalysisRequest(dag_file=chain_files[0],
                                pvalues_file=chain_files[1], dw={1.5}))


@pytest.mark.parametrize("method", ["bh", "storey-bh", "by", "yekutieli-tree"])
def test_cli_analyze_rejects_reshaping_without_filtered_count(chain_files,
                                                              capsys, method):
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--method", method,
                 "--reshaping", "by"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"method {method!r} takes no reshaping" in err
    assert "fbh, wfbh, wrfbh" in err


@pytest.mark.parametrize("divisor", ["0", "-1", "inf", "nan"])
def test_cli_analyze_rejects_bad_yk_divisor(chain_files, capsys, divisor):
    code = main(["analyze", "--dag", chain_files[0],
                 "--pvalues", chain_files[1], "--method", "yekutieli-tree",
                 "--yk-divisor", divisor])
    assert code == EXIT_INPUT
    assert "yk-divisor must be in (0, inf)" in capsys.readouterr().err


@pytest.mark.parametrize("divisor", ["0", "-1", "inf", "nan"])
def test_cli_simulate_rejects_bad_yk_divisor(tmp_path, capsys, divisor):
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "1", "--methods", "bh,yekutieli-tree",
                 "--yk-divisor", divisor, "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_INPUT
    assert "yk-divisor must be in (0, inf)" in capsys.readouterr().err


def test_cli_simulate_unknown_procedure_lists_choices(tmp_path, capsys):
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "1", "--methods", "wfbh:ds,bogus",
                 "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "unknown procedure 'bogus'" in err
    assert "bh, storey-bh, by, fbh, wfbh, wrfbh, yekutieli-tree" in err


@pytest.mark.parametrize("spec", [MethodSpec("bogus"),
                                  MethodSpec("wfbh", "screen:abc")])
def test_simulation_rejects_bad_method_before_any_replication(monkeypatch,
                                                              spec):
    # every method is resolved once, before any replication or worker
    import focusfdr.simulate as sim

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_run_block", no_replication)
    config = SimConfig(n_reps=2, methods=(MethodSpec("bh"), spec))
    with pytest.raises(ValueError):
        run_simulation(config, n_workers=2)


def test_simulation_rejects_bad_smoothing_before_any_replication(
        monkeypatch):
    # the smoothing is parsed with the methods, before any replication or
    # worker
    import focusfdr.simulate as sim

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_run_block", no_replication)
    config = SimConfig(n_reps=2, smoothing="bogus")
    with pytest.raises(ValueError, match="unknown combiner 'bogus'"):
        run_simulation(config, n_workers=2)


BAD_SWEEPS = [
    ({"family": "ladder"}, "unknown graph family 'ladder'"),
    ({"setup": "bogus"}, "unknown signal setup 'bogus'"),
    ({"p_nonnull": (0.3, 1.5)}, r"p_nonnull must be in \(0, 1\), got 1.5"),
    ({"p_nonnull": (0.0,)}, r"p_nonnull must be in \(0, 1\), got 0.0"),
    ({"rho": 1.0}, r"rho must be in \[0, 1\), got 1.0"),
    ({"rho": -0.1}, r"rho must be in \[0, 1\), got -0.1"),
    ({"p_nonnull": ()},
     r"p_nonnull: need a non-empty list or tuple, got \(\)"),
    ({"methods": ()},
     r"methods: need a non-empty list or tuple of MethodSpec, got \(\)"),
    ({"c": -3},
     "c: the group-size threshold must be an integer >= 0, got -3"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
]
BAD_SWEEP_IDS = ["family", "setup", "p-above-one", "p-zero", "rho-one",
                 "rho-negative", "p-empty", "methods-empty", "c-negative",
                 "seed-negative"]


@pytest.mark.parametrize("fields, message", BAD_SWEEPS, ids=BAD_SWEEP_IDS)
def test_simulation_rejects_bad_sweep_before_any_replication(
        monkeypatch, fields, message):
    # family, setup, every p_nonnull and rho are checked with the methods,
    # before any replication or worker
    import focusfdr.simulate as sim

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_run_block", no_replication)
    config = SimConfig(n_reps=3, **fields)
    with pytest.raises(ValueError, match=message):
        run_simulation(config, n_workers=2)


@pytest.mark.parametrize("fields, message", BAD_SWEEPS, ids=BAD_SWEEP_IDS)
def test_cli_simulate_rejects_bad_sweep(monkeypatch, tmp_path, capsys,
                                       fields, message):
    import focusfdr.simulate as sim

    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(sim, "_run_block", no_replication)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(fields))
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--reps", "3",
                 "--out", str(out)]) == EXIT_INPUT
    assert re.search("error: " + message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--dag", "missing.csv", "--pvalues", "missing.csv",
      "--c", "-3"],
     "c: the group-size threshold must be an integer >= 0, got -3"),
    (["simulate", "--c", "-3"],
     "c: the group-size threshold must be an integer >= 0, got -3"),
    (["simulate", "--seed", "-1"],
     "seed must be an integer >= 0, got -1"),
], ids=["analyze-c", "simulate-c", "simulate-seed"])
def test_cli_rejects_negative_c_and_seed_flags(no_replication, tmp_path,
                                               monkeypatch, capsys, argv,
                                               message):
    # analyze checks c before it reads any file; simulate before any
    # replication
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_cli_simulate_rejects_bad_thread_count(monkeypatch, tmp_path, capsys,
                                              value):
    monkeypatch.setenv("FOCUSFDR_THREADS", value)
    assert main(_simulate_args(str(tmp_path / "s.csv"))) == EXIT_INPUT
    err = capsys.readouterr().err
    assert ("FOCUSFDR_THREADS must be a nonnegative integer (0 = all cores), "
            f"got {value!r}") in err
    assert not (tmp_path / "s.csv").exists()


def test_cli_simulate_valid_thread_counts_agree(monkeypatch, tmp_path):
    monkeypatch.delenv("FOCUSFDR_THREADS", raising=False)
    assert main(_simulate_args(str(tmp_path / "serial.csv"))) == EXIT_OK
    want = (tmp_path / "serial.csv").read_bytes()
    # 0 means all cores; pin the core count so the pool stays small
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    for value in ("0", "1", "2", " 2 "):
        monkeypatch.setenv("FOCUSFDR_THREADS", value)
        assert main(_simulate_args(str(tmp_path / "s.csv"))) == EXIT_OK
        assert (tmp_path / "s.csv").read_bytes() == want


@pytest.fixture
def masks_forbidden(monkeypatch):
    """Make the O(m^2) bigint closures and the Python views of the edges
    raise on any access: they are for the filter oracle and the tests, and
    no production path may build them."""
    def forbidden(self):
        raise AssertionError("closure masks and edge views are oracle-only")

    for name in ("ancestor_masks", "descendant_masks", "children", "parents",
                 "edges"):
        monkeypatch.setattr(Dag, name, property(forbidden))
    monkeypatch.delenv("FOCUSFDR_THREADS", raising=False)
    with pytest.raises(AssertionError):
        apply_filter(FilterSpec("ds"), build_dag(2, [(0, 1)]), {1})
    for name in ("children", "parents", "edges"):
        with pytest.raises(AssertionError):
            getattr(build_dag(2, [(0, 1)]), name)


@pytest.mark.parametrize("filter_name", ["ds", "outer", "screen:0.5"])
@pytest.mark.parametrize("smoothing", [None, "fisher"])
def test_analyze_never_builds_closure_masks(masks_forbidden, tmp_path,
                                            filter_name, smoothing):
    dag = write(tmp_path / "dag.csv",
                "parent,child\na,c\nb,c\nc,d\na,e\nb,f\n")
    pv = write(tmp_path / "p.csv", "node,p\na,0.001\nb,0.002\nc,0.003\n"
                                   "d,0.004\ne,0.6\nf,0.005\n")
    report = analyze(AnalysisRequest(dag_file=dag, pvalues_file=pv,
                                     filter=filter_name, q=0.2,
                                     combiner=smoothing))
    assert report["counts"]["discoveries"] > 0
    assert report["structure"]["disjoint_descendant_depths"] == [2, 3]


def test_intersection_and_tree_analyses_never_build_edge_views(
        masks_forbidden, tmp_path):
    dag = write(tmp_path / "dag.csv", "parent,child\ntop,a\ntop,b\n")
    items = write(tmp_path / "ann.csv",
                  "node,item\ntop,g1\ntop,g2\na,g1\nb,g2\n")
    itemp = write(tmp_path / "itemp.csv", "item,p\ng1,0.001\ng2,0.002\n")
    rep = analyze(AnalysisRequest(dag_file=dag, pvalues_file=itemp,
                                  items_file=items, method="wfbh", q=0.1))
    assert rep["counts"]["discoveries"] == 3
    pv = write(tmp_path / "p.csv", "node,p\ntop,0.001\na,0.002\nb,0.3\n")
    rep = analyze(AnalysisRequest(dag_file=dag, pvalues_file=pv,
                                  method="yekutieli-tree", q=0.1))
    assert [r["node"] for r in rep["discoveries"]] == ["top", "a"]


def test_graph_info_never_builds_closure_masks(masks_forbidden, tmp_path,
                                               capsys):
    dag = write(tmp_path / "dag.csv", "parent,child\na,c\nb,c\nc,d\n")
    assert main(["graph-info", "--dag", dag]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n_d"] == {"1": 1, "2": 2,
                                                          "3": 1}


@pytest.mark.parametrize("family", ["wide-tree", "deep-tree", "bipartite1",
                                    "bipartite2"])
def test_simulation_never_builds_closure_masks(masks_forbidden, family):
    methods = tuple(MethodSpec(*m) for m in (
        ("wfbh", "ds"), ("fbh", "ds"), ("wfbh", "outer"), ("wrfbh", "ds"),
        ("wfbh", "screen:0.5"), ("bh", "trivial"), ("storey-bh", "trivial"),
        ("by", "trivial")))
    if family.endswith("tree"):
        methods += (MethodSpec("yekutieli-tree", "trivial"),)
    for smoothing in (None, "simes"):
        summary = run_simulation(SimConfig(
            family=family, setup="decremental", p_nonnull=(0.3,), n_reps=2,
            smoothing=smoothing, methods=methods))
        assert len(summary.cells) == len(methods)


def test_cli_graph_info_round_trip(tmp_path, capsys):
    dag = generate_graph("wide-tree")
    path = tmp_path / "wide.csv"
    export_edge_csv(dag, [f"n{i}" for i in range(dag.m)], path)
    code = main(["graph-info", "--dag", str(path)])
    assert code == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["m"] == 550
    assert info["max_depth"] == 2
    assert info["n_d"] == {"1": 1, "2": 50}
    assert info["depth_sizes"] == {"1": 50, "2": 500}
    assert info["is_tree"] is True


def test_cli_graph_info_diamond(tmp_path, capsys):
    path = write(tmp_path / "dia.csv", "parent,child\na,c\nb,c\nc,d\n")
    main(["graph-info", "--dag", path])
    info = json.loads(capsys.readouterr().out)
    assert info["is_tree"] is False
    assert info["disjoint_descendant_depths"] == [2, 3]


def test_cli_graph_info_writes_json_dump_bytes(tmp_path, capsys):
    # graph-info writes through the report writer, whose bytes are
    # json.dump's with indent 2, then a newline
    dag_file = Path(__file__).resolve().parent / "data" / "golden_dag.csv"
    _, _, dag = read_dag(dag_file)
    depths = compute_depths(dag)
    info = structure_summary(dag, depths, group_index(dag, depths))
    expected = json.dumps(info, indent=2) + "\n"
    out = tmp_path / "info.json"
    assert main(["graph-info", "--dag", str(dag_file)]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert main(["graph-info", "--dag", str(dag_file),
                 "--json-out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected.encode()


def test_python_dash_m_focusfdr_runs_the_cli(capsys):
    # a checkout on PYTHONPATH, not installed, has the CLI as a module
    root = Path(__file__).resolve().parents[1]
    dag_file = root / "tests" / "data" / "golden_dag.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "focusfdr", "graph-info", "--dag",
         str(dag_file)], capture_output=True, env=env, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr.decode()
    assert main(["graph-info", "--dag", str(dag_file)]) == EXIT_OK
    assert done.stdout.decode() == capsys.readouterr().out
    bad = subprocess.run([sys.executable, "-m", "focusfdr", "graph-info",
                          "--dag", str(root / "no-such.csv")],
                         capture_output=True, env=env, timeout=120)
    assert bad.returncode == EXIT_INPUT


def _simulate_args(out):
    return ["simulate", "--family", "wide-tree", "--setup", "decremental",
            "--p", "0.1,0.3", "--reps", "4", "--seed", "7",
            "--methods", "wfbh:ds,fbh:ds,bh", "--out", out]


def test_cli_simulate_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_simulate_args(str(out1))) == EXIT_OK
    assert main(_simulate_args(str(out2))) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 3 methods x 2 grid points
    assert {r["method"] for r in rows} == {"wfbh", "fbh", "bh"}
    assert {r["p_nonnull"] for r in rows} == {"0.1", "0.3"}
    for r in rows:
        assert 0.0 <= float(r["fdr_hat"]) <= 1.0
        assert 0.0 <= float(r["power_hat"]) <= 1.0
        assert r["n_reps"] == "4"
        assert r["lambda"] == "0.5"


def test_cli_simulate_lambda_policy_q(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--family", "wide-tree", "--p", "0.3",
                 "--reps", "2", "--rho", "0.2", "--lambda-policy", "q",
                 "--methods", "wfbh:ds", "--out", str(out)])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["lambda"] == "0.05"
    assert rows[0]["rho"] == "0.2"


def test_cli_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "wide-tree", "setup": "global", "p_nonnull": [0.3],
        "n_reps": 3, "seed": 1,
        "methods": [{"procedure": "bh", "filter": "trivial"}]}))
    out = tmp_path / "c.csv"
    code = main(["simulate", "--config", str(cfg), "--reps", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n_reps"] == "2"       # flag overrides file
    assert rows[0]["setup"] == "global"


def test_cli_analyze_runs_request_defaults(chain_files, capsys):
    # given only its files, analyze reports AnalysisRequest's defaults
    dag, pv = chain_files
    assert main(["analyze", "--dag", dag, "--pvalues", pv]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    request = AnalysisRequest(dag_file=dag, pvalues_file=pv)
    assert report["parameters"] == {
        "dag_file": dag, "pvalues_file": pv, "items_file": None,
        "method": request.method, "filter": request.filter, "q": request.q,
        "lambda": request.resolved_lambda(),
        "lambda_policy": request.lambda_policy, "c": request.c,
        "dw": request.dw, "combiner": None, "reshaping": None}
    assert report == analyze(request)


@pytest.fixture
def simulated(monkeypatch):
    """The SimConfig of each simulation the CLI runs (none is run)."""
    configs = []

    def run(config):
        configs.append(config)
        return SimSummary(config=config, cells=(), histories={})

    monkeypatch.setattr(cli_module, "run_simulation", run)
    return configs


@pytest.mark.parametrize("flag", ["--family", "--setup", "--p", "--rho",
                                  "--q", "--lambda-policy", "--c", "--dw",
                                  "--reps", "--seed", "--methods",
                                  "--yk-divisor"])
def test_cli_simulate_help_shows_config_defaults(simulated, tmp_path, capsys,
                                                 flag):
    # the default each help text shows, given as the flag, is SimConfig's
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    shown = re.search(rf"{flag} \S+ (?:(?!--).)*?\(default ([^)]*)\)", text)
    assert shown, flag
    assert main(["simulate", flag, shown.group(1),
                 "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    assert simulated == [SimConfig()]


FILE_CONFIG = SimConfig(
    family="deep-tree", setup="decremental", p_nonnull=(0.2,), rho=0.1,
    q=0.1, lambda_policy="q", c=2, dw=frozenset({1}), n_reps=5, seed=3,
    smoothing="fisher", methods=(MethodSpec("bh"),), yk_divisor=3.0)


@pytest.mark.parametrize("argv, field, value", [
    ([], None, None),
    (["--family", "bipartite1"], "family", "bipartite1"),
    (["--setup", "incremental"], "setup", "incremental"),
    (["--p", "0.4,0.6"], "p_nonnull", (0.4, 0.6)),
    (["--rho", "0.2"], "rho", 0.2),
    (["--q", "0.2"], "q", 0.2),
    (["--lambda-policy", "fixed:0.3"], "lambda_policy", "fixed:0.3"),
    (["--c", "3"], "c", 3),
    (["--dw", "1,2"], "dw", frozenset({1, 2})),
    (["--reps", "7"], "n_reps", 7),
    (["--seed", "4"], "seed", 4),
    (["--smoothing", "simes"], "smoothing", "simes"),
    (["--methods", "storey-bh,by:ds"], "methods",
     (MethodSpec("storey-bh"), MethodSpec("by", "ds"))),
    (["--yk-divisor", "4.5"], "yk_divisor", 4.5),
], ids=lambda v: v[0] if isinstance(v, list) and v else None)
def test_cli_simulate_flag_overrides_only_its_config_field(
        simulated, tmp_path, argv, field, value):
    # the file sets every field away from its default
    assert all(getattr(FILE_CONFIG, f.name) != f.default
               for f in fields(SimConfig))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "deep-tree", "setup": "decremental", "p_nonnull": [0.2],
        "rho": 0.1, "q": 0.1, "lambda_policy": "q", "c": 2, "dw": [1],
        "n_reps": 5, "seed": 3, "smoothing": "fisher", "methods": [["bh"]],
        "yk_divisor": 3.0}))
    assert main(["simulate", "--config", str(cfg), *argv,
                 "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    want = FILE_CONFIG if field is None else replace(FILE_CONFIG,
                                                     **{field: value})
    assert simulated == [want]


@pytest.mark.parametrize("argv, message", [
    (["--methods", ",", "--dw", "1,x", "--p", "0.1,x"],
     "--p: 'x' is not a valid float"),
    (["--methods", ",", "--dw", "1,x"], "--dw: 'x' is not a valid int"),
])
def test_cli_simulate_names_first_bad_list_in_field_order(
        no_replication, tmp_path, capsys, argv, message):
    # --p, then --dw, then --methods, whatever their order on the line
    out = tmp_path / "s.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("cls", [AnalysisRequest, SimConfig])
@pytest.mark.parametrize("name", [f.name for f in fields(RunParams)])
def test_run_params_fields_are_declared_once(cls, name):
    # both request types hold RunParams' own keyword-only Field
    shared = {f.name: f for f in fields(RunParams)}[name]
    assert {f.name: f for f in fields(cls)}[name] is shared and shared.kw_only
    made = cls("dag.csv", "p.csv") if cls is AnalysisRequest else cls()
    assert getattr(made, name) == shared.default


@pytest.mark.parametrize("argv, method, message", [
    (["--q", "1.5"], "bh", "target FDR level must be in (0, 1), got 1.5"),
    (["--lambda-policy", "fixed:7"], "bh",
     "lambda must be in (0, 1), got 7.0"),
    (["--c", "-3"], "bh",
     "c: the group-size threshold must be an integer >= 0, got -3"),
    (["--yk-divisor", "0"], "yekutieli-tree",
     "yk-divisor must be in (0, inf), got 0.0"),
    (["--c", "-3", "--q", "1.5"], "bh",
     "target FDR level must be in (0, 1), got 1.5"),
], ids=["q", "lambda", "c", "yk-divisor", "q-before-c"])
def test_cli_commands_reject_shared_parameters_alike(
        no_replication, tmp_path, monkeypatch, capsys, argv, method, message):
    # analyze on missing files: checked before any file is read; simulate
    # with no replication: checked before any replication
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--dag", "missing.csv", "--pvalues",
                 "missing_p.csv", "--method", method, *argv]) == EXIT_INPUT
    analyze_err = capsys.readouterr().err
    assert main(["simulate", "--methods", method, "--reps", "2", *argv,
                 "--out", "s.csv"]) == EXIT_INPUT
    assert analyze_err == capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", [["analyze"],
                                     ["simulate", "--dw", "none"],
                                     ["simulate", "--dw", "auto"]],
                         ids=["analyze", "simulate-dw-none",
                              "simulate-dw-auto"])
def test_cli_checks_lambda_taken_from_q(no_replication, chain_files,
                                        tmp_path, capsys, command):
    # yekutieli-tree runs at q / yk-divisor and so takes q = 2; lambda = q
    # must still lie in (0, 1)
    out = tmp_path / "out"
    if command[0] == "analyze":
        argv = ["--method", "yekutieli-tree", "--dag", chain_files[0],
                "--pvalues", chain_files[1], "--json-out", str(out)]
    else:
        argv = ["--methods", "yekutieli-tree", "--reps", "2",
                "--out", str(out)]
    assert main([*command, *argv, "--q", "2",
                 "--lambda-policy", "q"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: lambda must be in (0, 1), got 2.0\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("methods", [[["bh"]], [["wfbh", "ds"]]],
                         ids=["bh", "wfbh-ds"])
def test_cli_simulate_rejects_unknown_dw_mode(no_replication, tmp_path,
                                              capsys, methods):
    # rejected before any replication, whether or not a method weighs
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"family": "bipartite2", "dw": "bogus",
                               "methods": methods}))
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", str(cfg), "--reps", "2",
                 "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: unknown dw mode 'bogus'\n"
    assert not out.exists()


def test_analyze_rejects_unknown_dw_mode(chain_files):
    # bh builds no weights, yet the mode is checked
    with pytest.raises(ValueError, match="unknown dw mode 'bogus'"):
        analyze(AnalysisRequest(dag_file=chain_files[0],
                                pvalues_file=chain_files[1], method="bh",
                                dw="bogus"))


def test_analyze_rejects_unknown_dw_mode_before_reading_files(tmp_path):
    # the mode needs no graph, so neither missing file is opened
    with pytest.raises(ValueError, match="unknown dw mode 'bogus'"):
        analyze(AnalysisRequest(dag_file=tmp_path / "missing.csv",
                                pvalues_file=tmp_path / "missing-p.csv",
                                dw="bogus"))


def test_cli_check_counterexample(capsys):
    assert main(["check", "outer-monotone-counterexample"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_check_oracle(capsys):
    assert main(["check", "oracle-tstar", "--trials", "50"]) == EXIT_OK
    assert "50/50" in capsys.readouterr().out


def test_cli_check_condition1_small(capsys):
    assert main(["check", "condition1", "--reps", "200"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS]" in out and "estimate=" in out


def test_cli_check_superuniformity_small(capsys):
    assert main(["check", "superuniformity", "--reps", "300"]) == EXIT_OK
    assert "bound" in capsys.readouterr().out


def test_cli_check_unknown_suite(capsys):
    assert main(["check", "nonsense"]) == EXIT_INPUT
    assert "error: unknown suite 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize("suite, flag", [
    ("oracle-tstar", "--reps"), ("condition1", "--trials"),
    ("superuniformity", "--trials"),
    ("outer-monotone-counterexample", "--seed"),
    ("outer-monotone-counterexample", "--reps"),
    ("outer-monotone-counterexample", "--trials")])
def test_cli_check_rejects_flags_the_suite_does_not_take(capsys, suite, flag):
    assert main(["check", suite, flag, "5"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"error: {flag} does not apply to suite {suite!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suite, flag, value", [
    ("condition1", "--reps", "0"), ("superuniformity", "--reps", "0"),
    ("condition1", "--reps", "-5"), ("monotonicity", "--trials", "-2"),
    ("oracle-tstar", "--trials", "0"), ("oracle-tstar", "--seed", "-1"),
    ("condition1", "--seed", "-1")])
def test_cli_check_rejects_out_of_range_counts(capsys, suite, flag, value):
    assert main(["check", suite, flag, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    least = 0 if flag == "--seed" else 1
    assert f"error: {flag} must be >= {least}, got {value}" in captured.err
    assert captured.out == ""


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setitem(SUITES, "always-fails",
                        lambda seed=0: (False, ["synthetic failure"]))
    assert main(["check", "always-fails"]) == EXIT_CHECK
    assert "[FAIL]" in capsys.readouterr().out


def test_report_json_round_trip(chain_files, tmp_path):
    json_out = tmp_path / "r.json"
    main(["analyze", "--dag", chain_files[0], "--pvalues", chain_files[1],
          "--json-out", str(json_out)])
    first = json.loads(json_out.read_text())
    (tmp_path / "r2.json").write_text(json.dumps(first))
    assert json.loads((tmp_path / "r2.json").read_text()) == first


def test_analyze_orders_tied_discoveries_by_id(tmp_path):
    # unit weights under BH, so weighted p-values tie; a tie falls to the
    # smaller id, and ids number the names in order of first appearance
    dag = write(tmp_path / "dag.csv", "parent,child\nz,y\nz,x\ny,w\nx,v\n")
    pv = write(tmp_path / "p.csv",
               "node,p\nv,0.01\nw,0.002\nx,0.01\ny,0.01\nz,0.002\n")
    rep = analyze(AnalysisRequest(dag_file=dag, pvalues_file=pv,
                                  method="bh", q=0.5))
    rows = rep["discoveries"]
    assert rep["node_ids"] == {"z": 0, "y": 1, "x": 2, "w": 3, "v": 4}
    assert [row["node"] for row in rows] == ["z", "w", "y", "x", "v"]
    assert [row["id"] for row in rows] == [0, 3, 1, 2, 4]
    for row in rows:
        assert [type(row[k]) for k in ("id", "depth", "p", "weighted_p")] \
            == [int, int, float, float]
