"""End-to-end tests for the file formats and the command-line interface."""

import csv
import json

import pytest

from focusfdr.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from focusfdr.checks import SUITES
from focusfdr.io import (AnalysisRequest, MissingPvalueError, ParseError,
                         UnknownNodeInPvaluesError, analyze, export_edge_csv,
                         read_edge_csv, read_pvalue_csv)
from focusfdr.simulate import generate_graph


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
    assert edges == [(0, 1), (1, 2)]


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


def test_cli_analyze_stouffer_undefined_names_node(tmp_path, capsys):
    dag = write(tmp_path / "dag.csv", "parent,child\nx,y\nz,w\nw,v\n")
    pv = write(tmp_path / "p.csv",
               "node,p\nx,0.5\ny,0.2\nz,0.4\nw,0.0\nv,1.0\n")
    code = main(["analyze", "--dag", dag, "--pvalues", pv,
                 "--smoothing", "stouffer"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Stouffer is undefined at node 'z'" in err and pv in err


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
