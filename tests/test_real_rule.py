"""The three argument rules of ``dag``: ``_check_real`` for levels,
probabilities and scales, checked against a predicate written here for
each of its five interval forms; ``_check_int`` for counts and seeds; and
``_check_items`` for lists.  Two guards keep a hand-rolled interval check,
such as ``0.0 < x < 1.0``, and a hand-written count check, an ``if`` on
``_is_int(x, low)`` or on a comparison such as ``value < least`` that
raises, from coming back anywhere else in the package."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from focusfdr.dag import _check_int, _check_items, _check_real

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src"
                  / "focusfdr").glob("*.py"))
INF = math.inf
# each form as the rule's messages write it: (low, high, low closed, high
# closed)
FORMS = {"(0, 1)": (0.0, 1.0, False, False),
         "[0, 1)": (0.0, 1.0, True, False),
         "[0, 1]": (0.0, 1.0, True, True),
         "(0, 1]": (0.0, 1.0, False, True),
         "(0, inf)": (0.0, INF, False, False)}


class RuleError(ValueError):
    pass


def inside(x, form):
    """x in the form's interval, NaN never: a bound is in iff it is
    closed, and everything strictly between the bounds is in."""
    low, high, low_closed, high_closed = FORMS[form]
    if math.isnan(x):
        return False
    if x == low:
        return low_closed
    if x == high:
        return high_closed
    return low < x < high


def probes(form):
    """Each bound, its two floating-point neighbours, +-inf, NaN and 0.5."""
    low, high, _, _ = FORMS[form]
    values = {-INF, INF, math.nan, 0.5}
    for bound in (low, high):
        values |= {bound, float(np.nextafter(bound, -INF)),
                   float(np.nextafter(bound, INF))}
    return sorted(values, key=repr)


CASES = [(form, x) for form in FORMS for x in probes(form)]


@pytest.mark.parametrize("form, x", CASES,
                         ids=[f"{f}-{x!r}" for f, x in CASES])
def test_each_bound_and_its_neighbours(form, x):
    if inside(x, form):
        _check_real(x, "level", RuleError, form)
    else:
        with pytest.raises(RuleError) as err:
            _check_real(x, "level", RuleError, form)
        assert str(err.value) == f"level must be in {form}, got {x!r}"


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("make", [np.float32, np.float64, np.int64, float,
                                  int], ids=lambda f: f.__name__)
@pytest.mark.parametrize("x", [0, 0.5, 1, 2])
def test_numpy_and_python_numbers_are_judged_by_value(form, make, x):
    value = make(x)
    if inside(float(value), form):
        _check_real(value, "scale", RuleError, form)
    else:
        with pytest.raises(RuleError) as err:
            _check_real(value, "scale", RuleError, form)
        assert str(err.value) == f"scale must be in {form}, got {value!r}"


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("value, shown", [
    (True, "True"), (False, "False"), ("0.5", "'0.5'"), (None, "None"),
    (np.array(0.5), "array(0.5)"), (np.bool_(True), "np.True_"),
    (0.5 + 0j, "(0.5+0j)"), ([0.5], "[0.5]"), (10**400, str(10**400)),
    (-10**400, str(-10**400)),
    (Fraction(1, 10**400), repr(Fraction(1, 10**400)))],
    ids=["True", "False", "str", "None", "0-d", "np.bool", "complex",
         "list", "10**400", "-10**400", "1/10**400"])
def test_anything_but_a_real_number_is_refused(form, value, shown):
    # even where its value would lie inside the interval, as 10**400 lies
    # in (0, inf) though no float can hold it, and 1/10**400 lies in
    # (0, inf) though its float, 0.0, does not
    with pytest.raises(RuleError) as err:
        _check_real(value, "rho", RuleError, form)
    assert str(err.value) == f"rho must be in {form}, got {shown}"


def test_defaults_are_the_open_unit_interval_and_value_error():
    _check_real(0.5, "q")
    with pytest.raises(ValueError, match=r"^q must be in \(0, 1\), got 1$"):
        _check_real(1, "q")


def _is_number(node):
    """A numeric literal, signed or not, or an ``inf`` constant."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def literal_intervals(source, filename="<source>"):
    """The lines of every chained comparison with a number at both ends:
    an interval written out by hand."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and len(node.ops) > 1
            and _is_number(node.left) and _is_number(node.comparators[-1])]


def test_the_guard_sees_a_hand_rolled_interval():
    assert literal_intervals("ok = 0.0 <= rho < 1.0") == ["<source>:1"]
    assert literal_intervals("ok = 0 < x < np.inf") == ["<source>:1"]
    assert literal_intervals("ok = -1 < x <= 1") == ["<source>:1"]
    assert literal_intervals("ok = 1 <= d <= max_depth") == []
    assert literal_intervals("ok = 0.0 < x") == []


def test_no_interval_is_checked_outside_the_rule():
    found = [hit for path in SOURCES
             for hit in literal_intervals(path.read_text(encoding="utf-8"),
                                          path.name)]
    assert not found, ("check these with dag._check_real: "
                       + ", ".join(found))


@pytest.mark.parametrize("low", [0, 1])
@pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("make", [int, np.int64], ids=lambda f: f.__name__)
def test_a_count_at_its_bound_and_on_each_side(low, step, make):
    value = make(low + step)
    if step >= 0:
        _check_int(value, "count", low, RuleError)
    else:
        with pytest.raises(RuleError) as err:
            _check_int(value, "count", low, RuleError)
        assert str(err.value) == (f"count must be an integer >= {low}, "
                                  f"got {value!r}")


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (2.0, "2.0"), ("1", "'1'"), (None, "None"),
    ([1], "[1]")], ids=["True", "2.0", "str", "None", "list"])
def test_anything_but_an_integer_is_refused_as_a_count(value, shown):
    # even where its value would pass the bound
    with pytest.raises(ValueError) as err:
        _check_int(value, "n_mc", 1)
    assert type(err.value) is ValueError
    assert str(err.value) == f"n_mc must be an integer >= 1, got {shown}"


@pytest.mark.parametrize("value", [[0.5], (0.5, 0.1), [0.5, "x"]],
                         ids=["list", "tuple", "mixed"])
def test_a_non_empty_list_or_tuple_is_accepted(value):
    _check_items(value, "thresholds")


@pytest.mark.parametrize("value", [
    (), [], "0.5", {0.5: 1}, np.array([0.5]), 0.5, None],
    ids=["()", "[]", "str", "dict", "array", "number", "None"])
def test_anything_but_a_non_empty_list_or_tuple_is_refused(value):
    with pytest.raises(ValueError) as err:
        _check_items(value, "thresholds")
    assert str(err.value) == ("thresholds: need a non-empty list or tuple, "
                              f"got {value!r}")


def test_with_a_kind_every_item_must_be_one():
    _check_items(["simes", "fisher"], "combiners", str)
    with pytest.raises(ValueError) as err:
        _check_items(["simes", 5], "combiners", str)
    assert str(err.value) == ("combiners: need a non-empty list or tuple of "
                              "str, got ['simes', 5]")


def _is_count_call(node):
    """A call of ``_is_int`` with no upper bound: a count check."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "_is_int"
            and len(node.args) < 3
            and all(k.arg != "high" for k in node.keywords))


def _is_count_operand(node):
    """A bare name or an int literal, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Name) or (isinstance(node, ast.Constant)
                                          and type(node.value) is int)


def _is_count_compare(node):
    """One order comparison of a bare name with an int literal or another
    bare name, such as ``value < least``: a bound on a count."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            and any(isinstance(side, ast.Name)
                    for side in (node.left, node.comparators[0]))
            and all(map(_is_count_operand, (node.left, node.comparators[0]))))


def _clauses(test):
    """``test`` and, through ``not``, ``and`` and ``or``, its clauses."""
    yield test
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        yield from _clauses(test.operand)
    elif isinstance(test, ast.BoolOp):
        for value in test.values:
            yield from _clauses(value)


def hand_rolled_counts(source, filename="<source>"):
    """The lines of every ``if`` that raises and tests a count by hand,
    outside the rule ``_check_int`` itself: by ``_is_int`` without an upper
    bound (id checks, with one, pass), or by ``_is_count_compare`` in its
    test or a clause of it under ``not``, ``and`` or ``or``.  A comparison
    inside a call, such as the array check ``(sizes < 1).any()``, or inside
    a conditional expression, such as ``_check_real``'s bounds, is not a
    clause; no other site in the package is left out."""
    tree = ast.parse(source)
    rule = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_check_int"
            for node in ast.walk(fn)}
    return [f"{filename}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.If) and id(node) not in rule
            and (any(map(_is_count_call, ast.walk(node.test)))
                 or any(map(_is_count_compare, _clauses(node.test))))
            and any(isinstance(sub, ast.Raise)
                    for stmt in node.body for sub in ast.walk(stmt))]


def test_the_guard_sees_a_hand_rolled_count_check():
    assert hand_rolled_counts(
        "if not _is_int(n):\n    raise ValueError(n)") == ["<source>:1"]
    assert hand_rolled_counts(
        "if not _is_int(n, 0):\n    raise E") == ["<source>:1"]
    assert hand_rolled_counts(
        "if not (dag._is_int(n, low=1) and n < 9):\n    raise E"
    ) == ["<source>:1"]
    assert hand_rolled_counts(
        "def f(n):\n    if x:\n        pass\n"
        "    elif not _is_int(n, 1):\n        raise E") == ["<source>:4"]
    assert hand_rolled_counts(
        "if not _is_int(i, 0, m):\n    raise E") == []
    assert hand_rolled_counts(
        "if not _is_int(i, 0, high=m):\n    raise E") == []
    assert hand_rolled_counts("if not _is_int(n):\n    n = 0") == []
    assert hand_rolled_counts(
        "def _check_int(value, what, low):\n"
        "    if not _is_int(value, low):\n        raise E") == []


def test_the_guard_sees_a_count_compared_by_hand():
    # the shape of a floor check once written in the CLI's check command
    assert hand_rolled_counts(
        "for flag, name, value, least in checks:\n"
        "    if value is None:\n        continue\n"
        "    if value < least:\n"
        "        raise ValueError(f'{flag} must be >= {least}')") \
        == ["<source>:4"]
    assert hand_rolled_counts("if n <= 0:\n    raise E") == ["<source>:1"]
    assert hand_rolled_counts("if n < -1:\n    raise E") == ["<source>:1"]
    assert hand_rolled_counts(
        "if n is not None and not (1 <= n):\n    raise E") == ["<source>:1"]
    assert hand_rolled_counts(
        "if x or n > high:\n    raise E") == ["<source>:1"]
    assert hand_rolled_counts("if n < 0:\n    n = 0") == []
    assert hand_rolled_counts("if x < 0.5:\n    raise E") == []
    assert hand_rolled_counts("if n < len(s):\n    raise E") == []
    assert hand_rolled_counts("if (sizes < 1).any():\n    raise E") == []
    assert hand_rolled_counts("if 0 <= n < m:\n    raise E") == []


def test_no_count_is_checked_outside_the_rule():
    found = [hit for path in SOURCES
             for hit in hand_rolled_counts(path.read_text(encoding="utf-8"),
                                           path.name)]
    assert not found, ("check these with dag._check_int: "
                       + ", ".join(found))
