"""Guard for the benchmark under ``perfbench/``: the test suite never runs
it, so an API change could silently break its traced replay.  Every
``from focusfdr... import name`` there must resolve, and so must every
attribute it reads from a focusfdr module imported that way
(``from focusfdr import io as fio`` ... ``fio.analyze``) and every
attribute it reads from a variable named ``dag``, ``depths`` or ``groups``
(``dag.edges``), which must exist on a built Dag, DepthIndex or GroupIndex.
Every focusfdr function or class it calls, directly (``fio.analyze(r)``) or
through its tracer (``tr.call(label, fn, *args)``), must accept the call's
positional count and keyword names.  The benchmark's files are only read,
never imported or run."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

from focusfdr.dag import build_dag, compute_depths, group_index

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    # a submodule, such as focusfdr.io, is an attribute only once imported
    return importlib.import_module(f"{module_name}.{name}")


def _trees():
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"),
                              filename=str(path))


def _focusfdr_imports(tree):
    """The ``from focusfdr... import`` statements of a file."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "focusfdr"]


def _aliases(tree):
    """{local name: (module, name)} for each name imported from focusfdr."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in _focusfdr_imports(tree) for alias in node.names}


def _references():
    """(where, module, name) for each imported name, then for each
    attribute read from an imported focusfdr module."""
    refs = []
    for path, tree in _trees():
        for node in _focusfdr_imports(tree):
            refs.extend((f"{path.name}:{node.lineno}", node.module,
                         alias.name) for alias in node.names)
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                try:
                    target = _resolve(*aliases[node.value.id])
                except ImportError:
                    continue  # reported by the import's own test
                if isinstance(target, types.ModuleType):
                    refs.append((f"{path.name}:{node.lineno}",
                                 target.__name__, node.attr))
    return refs


REFERENCES = _references()


def test_perfbench_references_are_found():
    modules = {module for _, module, _ in REFERENCES}
    assert {"focusfdr", "focusfdr.io", "focusfdr.procedures"} <= modules


@pytest.mark.parametrize("where,module,name", REFERENCES,
                         ids=[f"{w}:{n}" for w, _, n in REFERENCES])
def test_perfbench_reference_resolves(where, module, name):
    try:
        _resolve(module, name)
    except ImportError:
        pytest.fail(f"perfbench/{where}: {module}.{name} does not resolve")


def _built():
    dag = build_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    depths = compute_depths(dag)
    return {"dag": dag, "depths": depths, "groups": group_index(dag, depths)}


BUILT = _built()


def _instance_reads():
    """(where, variable, attribute) for each attribute read from a variable
    named like one of the BUILT structures."""
    return sorted({(f"{path.name}:{node.lineno}", node.value.id, node.attr)
                   for path, tree in _trees() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in BUILT})


INSTANCE_READS = _instance_reads()


def test_perfbench_instance_reads_are_found():
    reads = {(variable, attr) for _, variable, attr in INSTANCE_READS}
    assert {("dag", "m"), ("dag", "edges"), ("dag", "ancestor_masks"),
            ("depths", "depth")} <= reads


@pytest.mark.parametrize("where,variable,attr", INSTANCE_READS,
                         ids=[f"{w}:{v}.{a}" for w, v, a in INSTANCE_READS])
def test_perfbench_instance_read_exists(where, variable, attr):
    assert hasattr(BUILT[variable], attr), \
        f"perfbench/{where}: {variable}.{attr} is not an attribute"


def _focusfdr_callee(node, aliases):
    """The focusfdr function or class that the expression ``node`` names
    (``name``, ``alias.attr``, ``Class.method``), else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not (isinstance(node, ast.Name) and node.id in aliases):
        return None
    try:
        target = _resolve(*aliases[node.id])
    except ImportError:
        return None             # reported by the import's own test
    for attr in reversed(attrs):
        target = getattr(target, attr, None)
    if (isinstance(target, types.ModuleType) or not callable(target)
            or not getattr(target, "__module__", "").startswith("focusfdr")):
        return None
    return target


def _calls():
    """(where, callee source, callee, positional count, keyword names,
    starred) for each call of a focusfdr callable, the tracer's
    ``call(label, fn, *args, **kwargs)`` counted as a call of ``fn``."""
    out = []
    for path, tree in _trees():
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn, args = node.func, node.args
            if (isinstance(fn, ast.Attribute) and fn.attr == "call"
                    and len(args) >= 2):
                fn, args = args[1], args[2:]
            callee = _focusfdr_callee(fn, aliases)
            if callee is None:
                continue
            starred = (any(isinstance(a, ast.Starred) for a in args)
                       or any(k.arg is None for k in node.keywords))
            out.append((f"{path.name}:{node.lineno}", ast.unparse(fn), callee,
                        sum(not isinstance(a, ast.Starred) for a in args),
                        tuple(k.arg for k in node.keywords if k.arg),
                        starred))
    return out


CALLS = _calls()


def test_perfbench_calls_are_found():
    found = {(source, n_args) for _, source, _, n_args, _, _ in CALLS}
    # direct calls and calls through the tracer, with their positional counts
    assert {("FilterSpec.from_name", 1), ("generate_graph", 2),
            ("group_index", 2), ("dag_weights", 5), ("fio.read_edge_csv", 1),
            ("wfbh", 5), ("sample_pvalues", 6), ("WeightConfig", 0)} <= found


@pytest.mark.parametrize("where,source,callee,n_args,keywords,starred", CALLS,
                         ids=[f"{c[0]}:{c[1]}" for c in CALLS])
def test_perfbench_call_binds_to_signature(where, source, callee, n_args,
                                           keywords, starred):
    signature = inspect.signature(callee)
    bind = signature.bind_partial if starred else signature.bind
    try:
        bind(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"perfbench/{where}: {source}{signature} does not take "
                    f"{n_args} positional argument(s) and keywords "
                    f"{list(keywords)}: {exc}")
