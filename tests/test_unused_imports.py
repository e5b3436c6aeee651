"""Guards for the package's sources: every name a ``src/focusfdr`` module
imports is used in it, every private module-level name one defines is
used somewhere in the package, and every public top-level function or
class is read by the package or the benchmark, or exported.  No linter
runs on this code, so an import or a helper left behind when code moves
would go unnoticed.  ``from __future__`` imports and the names
``__init__`` re-exports through ``__all__`` are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "focusfdr").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
# public names that nothing in the package, the benchmark or ``__all__``
# reads, kept on purpose: the one-vector combiner is the library's scalar
# entry point, the single-row form of what smoothing runs on blocks
UNREAD_PUBLIC = {"combine.py": {"combine"}}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    tree = _parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _private_definitions(tree):
    """{name: top-level statement} of each private function, class or
    constant a module defines at its top level (dunder names excepted)."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [node.id for t in targets for node in ast.walk(t)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt
    return defined


def _references(node):
    """The names ``node`` reads, as a bare name, an attribute or an
    imported name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_definition_is_used():
    trees = {path.name: _parse(path) for path in SOURCES}
    # the names each top-level statement of the package reads
    reads = [(stmt, _references(stmt))
             for tree in trees.values() for stmt in tree.body]
    orphans = [
        f"{module}:{stmt.lineno}: {private}"
        for module, tree in trees.items()
        for private, stmt in _private_definitions(tree).items()
        if not any(private in names for where, names in reads
                   if where is not stmt)]
    assert not orphans, "unused private definitions: " + ", ".join(orphans)


def test_every_public_definition_is_read_or_exported():
    # a test-only helper belongs in the tests: code in src/ is run by the
    # package, timed by the benchmark, or offered through focusfdr.__all__
    trees = {path.name: _parse(path) for path in SOURCES}
    reads = [(stmt, _references(stmt))
             for tree in trees.values() for stmt in tree.body]
    bench = set().union(*(_references(_parse(path)) for path in PERFBENCH))
    exported = _exported(trees["__init__.py"])
    unread = [
        f"{module}:{stmt.lineno}: {stmt.name}"
        for module, tree in trees.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in exported | bench
        and stmt.name not in UNREAD_PUBLIC.get(module, ())
        and not any(stmt.name in names for where, names in reads
                    if where is not stmt)]
    assert not unread, "public definitions nothing reads: " + ", ".join(
        unread)
