"""Guard for the package's sources: every name a ``src/focusfdr`` module
imports is used in it.  No linter runs on this code, so an import left
behind when code moves would go unnoticed.  ``from __future__`` imports
and the names ``__init__`` re-exports through ``__all__`` are exempt."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src"
                  / "focusfdr").glob("*.py"))


def _imported(tree):
    """{local name: line} of each name imported at any level of a module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                names[local] = node.lineno
    return names


def _exported(tree):
    """The strings of a module-level ``__all__`` list, if any."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
