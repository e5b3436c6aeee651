"""Guard for the benchmark under ``perfbench/``: the test suite never runs
it, so an API change could silently break its traced replay.  Every
``from focusfdr... import name`` there must resolve, and so must every
attribute it reads from a focusfdr module imported that way
(``from focusfdr import io as fio`` ... ``fio.analyze``) and every
attribute it reads from a variable named ``dag``, ``depths`` or ``groups``
(``dag.edges``), which must exist on a built Dag, DepthIndex or GroupIndex.
The benchmark's files are only read, never imported or run."""

import ast
import importlib
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


def _references():
    """(where, module, name) for each imported name, then for each
    attribute read from an imported focusfdr module."""
    refs = []
    for path, tree in _trees():
        aliases = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "focusfdr"):
                for alias in node.names:
                    refs.append((f"{path.name}:{node.lineno}", node.module,
                                 alias.name))
                    aliases[alias.asname or alias.name] = (node.module,
                                                           alias.name)
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
