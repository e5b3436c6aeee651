"""Command-line interface.

Subcommands: ``analyze`` (one dataset, one procedure), ``simulate`` (Monte
Carlo sweeps to CSV), ``check`` (verification suites), and ``graph-info``
(structure summary of an edge list).  Exit codes: 0 success, 2 input error,
3 check failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import io as fio
from .checks import SUITES, UnknownSuiteError
from .dag import compute_depths, group_index
from .procedures import PROCEDURES
from .simulate import (GRAPH_FAMILIES, SIGNAL_SETUPS, MethodSpec, SimConfig,
                       run_simulation)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3


def _add_analysis_knobs(sp):
    sp.add_argument("--q", type=float, default=0.05, help="target FDR level")
    sp.add_argument("--lambda-policy", default="fixed:0.5",
                    help='"fixed:<v>" or "q" (sets lambda = q)')
    sp.add_argument("--c", type=int, default=1,
                    help="group-size threshold for within-group estimation")
    sp.add_argument("--dw", default="auto",
                    help='"auto", "none", or comma list of depths')


def _parse_list(flag, text, kind):
    """The values of a comma list given to ``flag``, parsed by ``kind``."""
    out = []
    for tok in filter(str.strip, text.split(",")):
        try:
            out.append(kind(tok))
        except ValueError:
            raise ValueError(f"{flag}: {tok.strip()!r} is not a valid "
                             f"{kind.__name__}") from None
    return out


def _parse_dw(text):
    if text in ("auto", "none"):
        return text
    return frozenset(_parse_list("--dw", text, int))


def _parse_methods(text):
    specs = tuple(MethodSpec(*tok.strip().split(":", 1))
                  for tok in text.split(",") if tok.strip())
    if not specs:
        raise ValueError("--methods: no methods given")
    return specs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="focusfdr",
        description="FDR-controlling multiple testing on DAG-structured "
                    "hypotheses, with data-adaptive weights, filters, and "
                    "p-value smoothing.")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run one procedure on an edge list "
                                       "and a p-value file")
    a.add_argument("--dag", required=True, help="edge CSV (parent,child)")
    a.add_argument("--pvalues", required=True,
                   help="node,p CSV (item,p in intersection mode)")
    a.add_argument("--method", default="wfbh", choices=PROCEDURES)
    a.add_argument("--filter", default="ds",
                   help='"trivial" | "ds" | "outer" | "screen:<s>"')
    _add_analysis_knobs(a)
    a.add_argument("--smoothing", default=None,
                   help="combiner name for all-descendant smoothing "
                        "(fisher|stouffer|simes|tippett|orderstat:i|bonferroni)")
    a.add_argument("--reshaping", default=None, choices=["by"],
                   help="harmonic-sum reshaping (fbh, wfbh, wrfbh only)")
    a.add_argument("--items", default=None,
                   help="node,item annotation CSV (intersection-DAG mode)")
    a.add_argument("--yk-divisor", type=float, default=2.88,
                   help="yekutieli-tree runs at level q / divisor")
    a.add_argument("--json-out", default=None, help="report path (default stdout)")
    a.add_argument("--csv-out", default=None, help="discoveries CSV path")

    s = sub.add_parser("simulate", help="Monte Carlo FDR/power sweep")
    s.add_argument("--family", default=None, choices=GRAPH_FAMILIES,
                   help="graph family (default wide-tree)")
    s.add_argument("--setup", default=None, choices=SIGNAL_SETUPS,
                   help="signal setup (default global)")
    s.add_argument("--p", default=None,
                   help="comma list of non-null leaf proportions "
                        "(default 0.1,0.3,0.5)")
    s.add_argument("--rho", type=float, default=None,
                   help="equicorrelation of the test statistics (default 0)")
    s.add_argument("--q", type=float, default=None,
                   help="target FDR level (default 0.05)")
    s.add_argument("--lambda-policy", default=None,
                   help='"fixed:<v>" or "q" (default fixed:0.5)')
    s.add_argument("--c", type=int, default=None,
                   help="group-size threshold (default 1)")
    s.add_argument("--dw", default=None,
                   help='"auto", "none", or comma list of depths')
    s.add_argument("--reps", type=int, default=None,
                   help="replications per cell (default 200)")
    s.add_argument("--seed", type=int, default=None, help="default 0")
    s.add_argument("--smoothing", default=None, help="combiner name")
    s.add_argument("--methods", default=None,
                   help='comma list of procedure[:filter] entries '
                        "(default wfbh:ds,fbh:ds)")
    s.add_argument("--yk-divisor", type=float, default=None,
                   help="yekutieli-tree level divisor (default 2.88)")
    s.add_argument("--config", default=None,
                   help="JSON file of simulation fields (flags override)")
    s.add_argument("--out", default=None, help="CSV path (default stdout)")

    c = sub.add_parser("check", help="run a verification suite")
    c.add_argument("suite", help=f"one of {', '.join(sorted(SUITES))}")
    c.add_argument("--reps", type=int, default=None,
                   help="Monte Carlo replications (suite default otherwise)")
    c.add_argument("--trials", type=int, default=None,
                   help="random trials (suite default otherwise)")
    c.add_argument("--seed", type=int, default=None,
                   help="random seed (suite default otherwise)")

    g = sub.add_parser("graph-info", help="structure summary of an edge list")
    g.add_argument("--dag", required=True)
    g.add_argument("--json-out", default=None)
    return parser


def _cmd_analyze(args):
    request = fio.AnalysisRequest(
        dag_file=args.dag, pvalues_file=args.pvalues, method=args.method,
        filter=args.filter, q=args.q, lambda_policy=args.lambda_policy,
        c=args.c, dw=_parse_dw(args.dw), combiner=args.smoothing,
        reshaping=args.reshaping, items_file=args.items,
        yk_divisor=args.yk_divisor)
    report = fio.analyze(request)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fio.write_report_json(report, fh)
    else:
        fio.write_report_json(report, sys.stdout)
    if args.csv_out:
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            fio.write_discoveries_csv(report, fh)
    return EXIT_OK


def _is_method(value):
    """{"procedure"[, "filter"]} or [procedure[, filter]], of strings."""
    if isinstance(value, dict) and set(value) in ({"procedure"},
                                                 {"procedure", "filter"}):
        value = list(value.values())
    return (isinstance(value, list) and 1 <= len(value) <= 2
            and all(isinstance(v, str) for v in value))


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# each SimConfig field's JSON type and its test (json gives exact types, so
# true is no int); the sweep checks values, dw depths and booleans included
_STR = ("a string", lambda v: type(v) is str)
_INT = ("an integer", lambda v: type(v) is int)
_NUM = ("a number", lambda v: type(v) in (int, float))
_CONFIG_TYPES = {
    "family": _STR, "setup": _STR,
    "p_nonnull": ("a list of numbers", _list_of(_NUM[1])),
    "rho": _NUM, "q": _NUM, "lambda_policy": _STR, "c": _INT,
    "dw": ('"auto", "none" or a list of depths', lambda v: _STR[1](v)
           or _list_of(lambda d: isinstance(d, (int, float)))(v)),
    "n_reps": _INT, "seed": _INT,
    "smoothing": ("a string or null", lambda v: v is None or _STR[1](v)),
    "methods": ('a list of {"procedure", "filter"} objects or '
                "[procedure, filter] lists", _list_of(_is_method)),
    "yk_divisor": _NUM,
}


def _read_sim_config(path):
    """The SimConfig fields set by the JSON object in file ``path``, each
    checked for its type; a ValueError names the file and the field."""
    with open(path, encoding="utf-8") as fh:
        try:
            merged = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(merged, dict):
        raise ValueError(f"{path}: expected a JSON object of simulation "
                         f"fields, got {type(merged).__name__}")
    for name, value in merged.items():
        if name not in _CONFIG_TYPES:
            raise ValueError(f"{path}: unknown field {name!r}; choose from "
                             + ", ".join(_CONFIG_TYPES))
        what, valid = _CONFIG_TYPES[name]
        if not valid(value):
            raise ValueError(f"{path}: field {name!r} must be {what}, got "
                             f"{json.dumps(value)}")
    if "methods" in merged:
        merged["methods"] = tuple(MethodSpec(**m) if isinstance(m, dict)
                                  else MethodSpec(*m)
                                  for m in merged["methods"])
    if "p_nonnull" in merged:
        merged["p_nonnull"] = tuple(merged["p_nonnull"])
    if "dw" in merged and not isinstance(merged["dw"], str):
        merged["dw"] = frozenset(merged["dw"])
    return merged


def _cmd_simulate(args):
    merged = _read_sim_config(args.config) if args.config else {}
    flags = {
        "family": args.family, "setup": args.setup,
        "p_nonnull": (None if args.p is None
                      else tuple(_parse_list("--p", args.p, float))),
        "rho": args.rho, "q": args.q, "lambda_policy": args.lambda_policy,
        "c": args.c, "dw": None if args.dw is None else _parse_dw(args.dw),
        "n_reps": args.reps, "seed": args.seed, "smoothing": args.smoothing,
        "methods": (None if args.methods is None
                    else _parse_methods(args.methods)),
        "yk_divisor": args.yk_divisor,
    }
    merged.update({k: v for k, v in flags.items() if v is not None})
    config = SimConfig(**merged)
    summary = run_simulation(config)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fio.write_simulation_csv(summary, fh)
    else:
        fio.write_simulation_csv(summary, sys.stdout)
    return EXIT_OK


def _cmd_check(args):
    suite = SUITES.get(args.suite)
    if suite is None:
        raise UnknownSuiteError(f"unknown suite {args.suite!r}; "
                                f"choose from {sorted(SUITES)}")
    accepted = inspect.signature(suite).parameters
    kwargs = {}
    for flag, name, value in (("--reps", "n_mc", args.reps),
                              ("--trials", "trials", args.trials),
                              ("--seed", "seed", args.seed)):
        if value is None:
            continue
        if name not in accepted:
            raise ValueError(f"{flag} does not apply to suite {args.suite!r}")
        kwargs[name] = value
    ok, lines = suite(**kwargs)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {args.suite}")
    for line in lines:
        print(f"  {line}")
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_graph_info(args):
    _, _, dag = fio.read_dag(args.dag)
    depths = compute_depths(dag)
    groups = group_index(dag, depths)
    info = fio.structure_summary(dag, depths, groups)
    text = json.dumps(info, indent=2) + "\n"
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "simulate": _cmd_simulate,
                "check": _cmd_check, "graph-info": _cmd_graph_info}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
