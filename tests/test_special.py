"""Accuracy tests for the special functions against independent references.

Fixed expected values were computed with scipy 1.15 / mpmath (40 digits);
the grid comparisons use the C library's erf/erfc as a second opinion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import focusfdr.special as sp
from focusfdr.special import (DomainError, beta_cdf, chisq_survival, erf,
                              erfc, normal_cdf, normal_quantile)


def test_erfc_matches_libm_on_grid():
    xs = np.concatenate([np.linspace(-10, 10, 4001),
                         np.linspace(-0.6, 0.6, 1201)])
    ref = np.array([math.erfc(v) for v in xs])
    got = erfc(xs)
    assert np.max(np.abs(got - ref)) < 1e-14
    rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
    assert rel.max() < 5e-15


def test_erf_matches_libm_on_grid():
    xs = np.linspace(-6, 6, 2001)
    ref = np.array([math.erf(v) for v in xs])
    assert np.max(np.abs(erf(xs) - ref)) < 1e-14


@pytest.mark.parametrize("fn, at_inf, at_minus_inf", [
    (erfc, 0.0, 2.0), (erf, 1.0, -1.0), (normal_cdf, 1.0, 0.0)])
def test_limits_at_infinity_and_nan(fn, at_inf, at_minus_inf):
    x = np.array([np.inf, -np.inf, np.nan])
    got = fn(x)
    assert got[0] == at_inf and got[1] == at_minus_inf and np.isnan(got[2])
    assert fn(np.inf) == at_inf and fn(-np.inf) == at_minus_inf
    assert math.isnan(fn(np.nan))


@pytest.mark.parametrize("fn", [erfc, erf, normal_cdf])
def test_huge_arguments_take_the_limits_without_warnings(fn):
    # every branch is evaluated on every entry, so the branches that do not
    # apply overflow or divide by zero; none of that may leak as a warning
    # (underflow stays ignored, as numpy has it by default)
    x = np.array([1e300, -1e300, 1.7e308, -1.7e308, 0.0, -0.0, 5e-324])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        fn(x)
    expected = {erfc: [0.0, 2.0], erf: [1.0, -1.0], normal_cdf: [1.0, 0.0]}
    assert fn(x)[:4].tolist() == expected[fn] * 2


@pytest.mark.parametrize("x,expected", [
    (-8.0, 6.220960574271784e-16),
    (-3.5, 0.00023262907903552504),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.3, 0.6179114221889527),
    (1.3, 0.9031995154143897),
    (2.0, 0.9772498680518208),
])
def test_normal_cdf_reference_values(x, expected):
    assert normal_cdf(x) == pytest.approx(expected, abs=1e-13)


def test_normal_cdf_symmetry():
    xs = np.linspace(-5, 5, 101)
    assert np.allclose(normal_cdf(xs) + normal_cdf(-xs), 1.0, atol=1e-14)


@pytest.mark.parametrize("p,expected", [
    (1e-12, -7.034483825301131),
    (1e-06, -4.753424308822899),
    (0.025, -1.9599639845400545),
    (0.3, -0.5244005127080409),
    (0.5, 0.0),
    (0.975, 1.959963984540054),
    (0.999999, 4.753424308817087),
])
def test_normal_quantile_reference_values(p, expected):
    assert normal_quantile(p) == pytest.approx(expected, abs=1e-12)


def test_normal_quantile_round_trip():
    assert normal_quantile(normal_cdf(1.3)) == pytest.approx(1.3, abs=1e-10)
    for x in [-4.0, -0.73, 0.0002, 2.1]:
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-10)


def test_normal_quantile_domain():
    for bad in [0.0, 1.0, -0.2, 1.3]:
        with pytest.raises(DomainError):
            normal_quantile(bad)
    with pytest.raises(DomainError):
        normal_quantile(np.array([0.5, 1.0]))


def _horner(coeffs, r):
    acc = coeffs[7]
    for c in reversed(coeffs[:7]):
        acc = acc * r + c
    return acc


def ppnd16(p):
    """Wichura's AS 241 (PPND16) for one p, operation for operation as the
    masked array kernel evaluated it: central rational for |p - 0.5| <=
    0.425, else r = sqrt(-log(min(p, 1 - p))) and the r <= 5 or r > 5 tail
    rational."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _horner(sp._PPND_A, r) / _horner(sp._PPND_B, r)
    r = math.sqrt(-float(np.log(p if q < 0.0 else 1.0 - p)))
    if r <= 5.0:
        val = (_horner(sp._PPND_C, r - 1.6)
               / _horner(sp._PPND_D, r - 1.6))
    else:
        val = (_horner(sp._PPND_E, r - 5.0)
               / _horner(sp._PPND_F, r - 5.0))
    return -val if q < 0.0 else val


def _around(x, k=3):
    """x and its k nearest floats on either side."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        out += [lo, hi]
    return out


# the central/tail switch (|p - 0.5| = 0.425) and the tail's r = 5 switch
# (p = exp(-25) and its mirror), each with its neighbouring floats
QUANTILE_EDGES = (_around(0.075) + _around(0.925) + _around(math.exp(-25))
                  + _around(1.0 - math.exp(-25))
                  + [5e-324, 1e-300, 1e-20, 0.5, math.nextafter(1.0, 0.0)])
UNIT_OPEN = st.floats(min_value=5e-324, max_value=math.nextafter(1.0, 0.0))
QUANTILE_P = st.one_of(UNIT_OPEN, st.sampled_from(QUANTILE_EDGES),
                       st.floats(1e-300, 1e-5), st.floats(1.0 - 1e-5, 1.0,
                                                          exclude_max=True))


@given(ps=st.lists(QUANTILE_P, min_size=1, max_size=60),
       fortran=st.booleans())
@settings(max_examples=300, deadline=None)
def test_normal_quantile_matches_per_element_formula(ps, fortran):
    # the kernel evaluates the central rational on every entry and indexes
    # only the tails; each entry must still get exactly the bits of the
    # per-entry formula
    want = np.array([ppnd16(p) for p in ps])
    assert np.array_equal(normal_quantile(np.array(ps)), want)
    assert [normal_quantile(p) for p in ps] == want.tolist()
    if len(ps) % 2 == 0:
        grid = np.array(ps).reshape(2, -1, order="F" if fortran else "C")
        assert np.array_equal(normal_quantile(grid),
                              want.reshape(grid.shape, order="F"
                                           if fortran else "C"))


@pytest.mark.parametrize("x,df,expected", [
    (2.772589, 4, 0.5965735421477955),   # closed form exp(-x/2)(1 + x/2)
    (1.0, 2, 0.6065306597126334),
    (10.0, 6, 0.12465201948308115),
    (55.0, 20, 4.1061432754981256e-05),
    (0.5, 2, 0.7788007830714049),
    (3.2, 8, 0.9211865127702811),
])
def test_chisq_survival_reference_values(x, df, expected):
    assert chisq_survival(x, df) == pytest.approx(expected, abs=1e-12)


def test_chisq_survival_df4_closed_form():
    xs = np.linspace(0.01, 40, 500)
    closed = np.exp(-xs / 2) * (1 + xs / 2)
    assert np.max(np.abs(chisq_survival(xs, 4) - closed)) < 1e-13


def test_chisq_survival_edges():
    assert chisq_survival(0.0, 4) == 1.0
    assert chisq_survival(float("inf"), 4) == 0.0
    with pytest.raises(DomainError):
        chisq_survival(1.0, 3)
    with pytest.raises(DomainError):
        chisq_survival(1.0, 0)
    with pytest.raises(DomainError):
        chisq_survival(-0.5, 2)


@given(rows=st.lists(
    st.tuples(st.integers(1, 40),
              st.lists(st.one_of(st.floats(0.0, 300.0),
                                 st.just(float("inf"))),
                       min_size=2, max_size=2)),
    min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_chisq_survival_array_df_matches_scalar_calls(rows):
    df = np.array([2 * n for n, _ in rows])
    x = np.array([xs for _, xs in rows])
    out = chisq_survival(x, df)
    assert out.shape == x.shape
    for i in range(df.size):
        assert np.array_equal(out[i], chisq_survival(x[i], int(df[i])))
    flat = chisq_survival(x[:, 0], df)
    for i in range(df.size):
        assert flat[i] == chisq_survival(float(x[i, 0]), int(df[i]))


def test_chisq_survival_array_df_errors():
    with pytest.raises(DomainError):
        chisq_survival(np.ones(2), np.array([2, 3]))
    with pytest.raises(DomainError):
        chisq_survival(np.array([1.0, -1.0]), np.array([2, 4]))
    with pytest.raises(ValueError):
        chisq_survival(np.ones(3), np.array([2, 4]))
    with pytest.raises(ValueError):
        chisq_survival(1.0, np.array([2]))
    assert chisq_survival(np.empty(0), np.empty(0, dtype=int)).size == 0


@pytest.mark.parametrize("x,a,b,expected", [
    (0.3, 1, 1, 0.3),
    (0.2, 2, 5, 0.3446400000000002),
    (0.7, 3, 3, 0.8369199999999999),
    (0.05, 1, 10, 0.401263060761621),
    (0.9, 5, 2, 0.885735),
    (0.5, 4, 9, 0.927001953125),
])
def test_beta_cdf_reference_values(x, a, b, expected):
    assert beta_cdf(x, a, b) == pytest.approx(expected, abs=1e-12)


def test_beta_cdf_order_statistic_identity():
    # I_x(1, n) = 1 - (1 - x)^n, the minimum order statistic law
    xs = np.linspace(0, 1, 101)
    for n in [1, 2, 5, 40]:
        assert np.max(np.abs(beta_cdf(xs, 1, n) - (1 - (1 - xs) ** n))) < 1e-12


def test_beta_cdf_edges_and_domain():
    assert beta_cdf(0.0, 3, 4) == 0.0
    assert beta_cdf(1.0, 3, 4) == 1.0
    with pytest.raises(DomainError):
        beta_cdf(0.5, 0, 2)
    with pytest.raises(DomainError):
        beta_cdf(1.2, 1, 2)
    with pytest.raises(DomainError):
        beta_cdf(0.5, 1.5, 2)
