"""Accuracy tests for the special functions against independent references.

Fixed expected values were computed with scipy 1.15 / mpmath (40 digits);
the grid comparisons use the C library's erf/erfc as a second opinion.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
