"""Guard for the benchmark under ``perfbench/``: the test suite never runs
it, so an API change could silently break its traced replay.  Every
``from focusfdr... import name`` there must resolve, and so must every
attribute it reads from a focusfdr module imported that way
(``from focusfdr import io as fio`` ... ``fio.analyze``).  The benchmark's
files are only read, never imported or run."""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    # a submodule, such as focusfdr.io, is an attribute only once imported
    return importlib.import_module(f"{module_name}.{name}")


def _references():
    """(where, module, name) for each imported name, then for each
    attribute read from an imported focusfdr module."""
    refs = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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
