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
from dataclasses import MISSING, fields
from functools import partial

from . import io as fio
from .checks import SUITES, UnknownSuiteError
from .dag import _check_int, compute_depths, group_index
from .procedures import PROCEDURES
from .simulate import (GRAPH_FAMILIES, SIGNAL_SETUPS, MethodSpec, SimConfig,
                       run_simulation)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3


def _spell(value):
    """A default as it would be given on the command line."""
    if isinstance(value, tuple):
        return ",".join(map(_spell, value))
    if isinstance(value, MethodSpec):
        return f"{value.procedure}:{value.filter}"
    return f"{value:g}" if isinstance(value, float) else str(value)


def _add_field(sp, cls, flag, text, dest=None, **kwargs):
    """Add to ``sp`` a flag that sets field ``dest`` (by default the one
    named as the flag) of dataclass ``cls``, with its default in the help.
    Under ``argparse.SUPPRESS`` an absent flag leaves the field unset."""
    dest = dest or flag[2:].replace("-", "_")
    default = next(f.default for f in fields(cls) if f.name == dest)
    if default not in (None, MISSING):
        text += f" (default {_spell(default)})"
    sp.add_argument(flag, dest=dest, help=text, **kwargs)


def _add_run_params(add):
    """The run parameters that ``analyze`` and ``simulate`` both take."""
    add("--q", "target FDR level", type=float)
    add("--lambda-policy", '"fixed:<v>" or "q" (sets lambda = q)')
    add("--c", "group-size threshold for within-group estimation", type=int)
    add("--dw", '"auto", "none", or comma list of depths')
    add("--yk-divisor", "yekutieli-tree runs at level q / divisor", type=float)


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


# the comma-list fields, parsed in this order, so the first bad one is named
_LIST_FIELDS = (
    ("p_nonnull", lambda text: tuple(_parse_list("--p", text, float))),
    ("dw", _parse_dw),
    ("methods", _parse_methods),
)
# what a command's namespace holds besides the fields of its request type
_NOT_FIELDS = ("command", "json_out", "csv_out", "config", "out")


def _fields(args):
    """The request fields set on the command line, comma lists parsed."""
    given = {k: v for k, v in vars(args).items() if k not in _NOT_FIELDS}
    for name, parse in _LIST_FIELDS:
        if name in given:
            given[name] = parse(given[name])
    return given


def build_parser():
    parser = argparse.ArgumentParser(
        prog="focusfdr",
        description="FDR-controlling multiple testing on DAG-structured "
                    "hypotheses, with data-adaptive weights, filters, and "
                    "p-value smoothing.")
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run one procedure on an edge list "
                                       "and a p-value file",
                       argument_default=argparse.SUPPRESS)
    add = partial(_add_field, a, fio.AnalysisRequest)
    add("--dag", "edge CSV (parent,child)", "dag_file", required=True)
    add("--pvalues", "node,p CSV (item,p in intersection mode)",
        "pvalues_file", required=True)
    add("--method", "procedure", choices=PROCEDURES)
    add("--filter", '"trivial" | "ds" | "outer" | "screen:<s>"')
    _add_run_params(add)
    add("--smoothing", "combiner name for all-descendant smoothing "
        "(fisher|stouffer|simes|tippett|orderstat:i|bonferroni)", "combiner")
    add("--reshaping", "harmonic-sum reshaping (fbh, wfbh, wrfbh only)",
        choices=["by"])
    add("--items", "node,item annotation CSV (intersection-DAG mode)",
        "items_file")
    a.add_argument("--json-out", default=None,
                   help="report path (default stdout)")
    a.add_argument("--csv-out", default=None, help="discoveries CSV path")

    s = sub.add_parser("simulate", help="Monte Carlo FDR/power sweep",
                       argument_default=argparse.SUPPRESS)
    add = partial(_add_field, s, SimConfig)
    add("--family", "graph family", choices=GRAPH_FAMILIES)
    add("--setup", "signal setup", choices=SIGNAL_SETUPS)
    add("--p", "comma list of non-null leaf proportions", "p_nonnull")
    add("--rho", "equicorrelation of the test statistics", type=float)
    _add_run_params(add)
    add("--reps", "replications per cell", "n_reps", type=int)
    add("--seed", "random seed", type=int)
    add("--smoothing", "combiner name")
    add("--methods", "comma list of procedure[:filter] entries")
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


def _write_json(report, path):
    """Write ``report`` by ``io.write_report_json`` to ``path`` or stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fio.write_report_json(report, fh)
    else:
        fio.write_report_json(report, sys.stdout)


def _cmd_analyze(args):
    report = fio.analyze(fio.AnalysisRequest(**_fields(args)))
    _write_json(report, args.json_out)
    if args.csv_out:
        with open(args.csv_out, "w", newline="", encoding="utf-8") as fh:
            fio.write_discoveries_csv(report, fh)
    return EXIT_OK


def _is_method(value):
    """{"procedure"[, "filter"]} or [procedure[, filter]], of strings."""
    if isinstance(value, dict) and set(value) in ({"procedure"},
                                                 {"procedure", "filter"}):
        value = list(value.values())
    return (isinstance(value, list) and len(value) in (1, 2)
            and all(isinstance(v, str) for v in value))


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


# each SimConfig field's JSON type and its test (json gives exact types, so
# true is no int); the sweep checks values, dw depths and booleans included
_STR = ("a string", lambda v: type(v) is str)
_INT = ("an integer", lambda v: type(v) is int)
_NUM = ("a number", lambda v: type(v) in (int, float))
_CONFIG_TYPES = {
    "q": _NUM, "lambda_policy": _STR, "c": _INT,
    "dw": ('"auto", "none" or a list of depths', lambda v: _STR[1](v)
           or _list_of(lambda d: isinstance(d, (int, float)))(v)),
    "yk_divisor": _NUM,
    "family": _STR, "setup": _STR,
    "p_nonnull": ("a list of numbers", _list_of(_NUM[1])),
    "rho": _NUM, "n_reps": _INT, "seed": _INT,
    "smoothing": ("a string or null", lambda v: v is None or _STR[1](v)),
    "methods": ('a list of {"procedure", "filter"} objects or '
                "[procedure, filter] lists", _list_of(_is_method)),
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
    merged.update(_fields(args))
    summary = run_simulation(SimConfig(**merged))
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
    for flag, name, value, least in (("--reps", "n_mc", args.reps, 1),
                                     ("--trials", "trials", args.trials, 1),
                                     ("--seed", "seed", args.seed, 0)):
        if value is None:
            continue
        if name not in accepted:
            raise ValueError(f"{flag} does not apply to suite {args.suite!r}")
        _check_int(value, flag, least)
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
    _write_json(fio.structure_summary(dag, depths, groups), args.json_out)
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
