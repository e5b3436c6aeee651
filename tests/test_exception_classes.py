"""Guard for the package's error classes: every exception class a
``src/focusfdr`` module defines is raised, or subclassed, somewhere in the
package.  A class whose last ``raise`` is deleted with the code path that
reported it would otherwise stay behind, documented and importable, but
never seen."""

import ast
import builtins
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src"
                  / "focusfdr").glob("*.py"))
BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}


def _name(node):
    """The bare or attribute name an expression ends in, else None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _package():
    """({class name: (module, line, base names)}, raised names) over every
    class definition and ``raise`` statement of the package."""
    classes, raised = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.name, node.lineno,
                                      {_name(b) for b in node.bases})
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_name(node.exc))
    return classes, raised


def _exception_classes(classes):
    """The names of the classes that derive, through the package's own
    classes, from a built-in exception."""
    errors = set()
    while True:
        more = {name for name, (_, _, bases) in classes.items()
                if bases & (BUILTIN_ERRORS | errors)}
        if more == errors:
            return errors
        errors = more


def test_the_guard_sees_the_package_errors():
    classes, raised = _package()
    errors = _exception_classes(classes)
    assert {"DomainError", "ParseError", "NodeIdOutOfRangeError",
            "EmptyInputError"} <= errors
    assert "Combiner" not in errors and "ValueError" in raised


def test_every_exception_class_is_raised_or_subclassed():
    classes, raised = _package()
    subclassed = set().union(*(bases for _, _, bases in classes.values()))
    unused = [f"{module}:{line}: {name}"
              for name, (module, line, _) in sorted(classes.items())
              if name in _exception_classes(classes)
              and name not in raised | subclassed]
    assert not unused, ("exception classes never raised or subclassed: "
                        + ", ".join(unused))
