"""Guard for the package's error classes: every exception class a
``src/focusfdr`` module defines is raised, or subclassed, somewhere in the
package.  A class whose last ``raise`` is deleted with the code path that
reported it would otherwise stay behind, documented and importable, but
never seen.  The interval rule ``dag._check_real`` raises the class passed
as its ``error`` argument, so such an argument counts as raised."""

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


def _raised_by_rule(call):
    """The name of the class a ``_check_real(value, what, error)`` call
    raises, positional or by keyword; None for any other call."""
    if _name(call.func) != "_check_real":
        return None
    error = [k.value for k in call.keywords if k.arg == "error"]
    return _name((call.args[2:3] or error or [None])[0])


def _package():
    """({class name: (module, line, base names)}, raised names) over every
    class definition and ``raise`` statement of the package, and every
    class the interval rule is given to raise."""
    classes, raised = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.name, node.lineno,
                                      {_name(b) for b in node.bases})
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_name(node.exc))
            elif isinstance(node, ast.Call):
                raised.add(_raised_by_rule(node))
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
    # passed to the interval rule, and raised nowhere else
    assert {"QOutOfRangeError", "RhoOutOfRangeError"} <= raised


def test_the_rule_counts_only_its_error_argument():
    calls = {'_check_real(q, "q", QOutOfRangeError)': "QOutOfRangeError",
             '_check_real(r, "rho", error=RhoError, interval="[0, 1)")':
             "RhoError",
             '_check_real(t, "threshold")': None,
             'other(x, "x", UnusedError)': None,
             '_check_real(x, "x", ValueError, UnusedError)': "ValueError"}
    for source, expected in calls.items():
        assert _raised_by_rule(ast.parse(source).body[0].value) == expected


def test_every_exception_class_is_raised_or_subclassed():
    classes, raised = _package()
    subclassed = set().union(*(bases for _, _, bases in classes.values()))
    unused = [f"{module}:{line}: {name}"
              for name, (module, line, _) in sorted(classes.items())
              if name in _exception_classes(classes)
              and name not in raised | subclassed]
    assert not unused, ("exception classes never raised or subclassed: "
                        + ", ".join(unused))
