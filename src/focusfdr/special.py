"""Special functions for the testing procedures and the simulation harness.

Hand-translated rational approximations (no SciPy dependency): Cody's
Chebyshev fits for erf/erfc and Wichura's PPND16 for the normal quantile,
plus exact series for the chi-square survival function with even degrees
of freedom and the beta CDF with integer parameters.  All functions accept
scalars or numpy arrays and target absolute error below 1e-12.  At +-inf
erfc is exactly 0 and 2 (so normal_cdf is 1 and 0); NaN maps to NaN.
"""

from __future__ import annotations

import math

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


_SQRT2 = math.sqrt(2.0)
_INV_SQRTPI = 5.6418958354775628695e-1  # 1/sqrt(pi)

# Cody (1969) rational coefficients, as in netlib CALERF.
_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e0,
           6.61191906371416295e1, 2.98635138197400131e2,
           8.81952221241769090e2, 1.71204761263407058e3,
           2.05107837782607147e3, 1.23033935479799725e3,
           2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e1, 1.17693950891312499e2,
           5.37181101862009858e2, 1.62138957456669019e3,
           3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3, 1.23033935480374942e3)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2,
           6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e0, 1.87295284992346047e0,
           5.27905102951428412e-1, 6.05183413124413191e-2,
           2.33520497626869185e-3)


def _cody(a, b, t):
    """Numerator and denominator of Cody's rational in t, by ``_poly``:
    a[-1], a[0], .., a[k] and 1, b[0], .., b[k] from the top power down,
    k = len(b) - 1."""
    k = len(b) - 1
    return _poly(a[k::-1] + (a[-1],), t), _poly(b[::-1] + (1.0,), t)


def _erf_small(z):
    # |x| <= 0.46875, z = x^2; returns erf(x)/x
    num, den = _cody(_ERF_A, _ERF_B, z)
    return num / den


def _erfc_mid(y):
    # 0.46875 <= y <= 4; returns erfc(y) * exp(y^2)
    num, den = _cody(_ERFC_C, _ERFC_D, y)
    return num / den


def _erfc_tail(y):
    # y > 4; returns erfc(y) * exp(y^2)
    z = 1.0 / (y * y)
    num, den = _cody(_ERFC_P, _ERFC_Q, z)
    return (_INV_SQRTPI - z * num / den) / y


def _exp_msq(y):
    # exp(-y^2) computed as exp(-hi^2)*exp(-(y-hi)(y+hi)) to limit the
    # squaring error in the far tail (hi = y rounded to 1/16).
    hi = np.floor(y * 16.0) / 16.0
    rest = (y - hi) * (y + hi)
    return np.exp(-hi * hi) * np.exp(-rest)


def _erfc_array(x):
    # every branch runs on the whole array; the tail is exactly 0 from
    # y = 27.3125 on, so it runs at min(y, 28), finite at y = inf
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    with np.errstate(all="ignore"):
        small = 1.0 - x * _erf_small(x * x)
        yc = np.minimum(y, 28.0)
        big = (np.where(yc <= 4.0, _erfc_mid(yc), _erfc_tail(yc))
               * _exp_msq(yc))
    return np.where(y <= 0.46875, small, np.where(x < 0, 2.0 - big, big))


def erfc(x):
    """Complementary error function (vectorized)."""
    res = _erfc_array(x)
    return float(res) if np.ndim(x) == 0 else res


def erf(x):
    """Error function (vectorized)."""
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        small = x_arr * _erf_small(x_arr * x_arr)
    out = np.where(np.abs(x_arr) <= 0.46875, small, 1.0 - _erfc_array(x_arr))
    return float(out) if np.ndim(x) == 0 else out


def normal_cdf(x):
    """Standard normal CDF Phi(x)."""
    res = 0.5 * _erfc_array(np.negative(x) / _SQRT2)
    return float(res) if np.ndim(x) == 0 else res


# Wichura (1988), algorithm AS 241, PPND16 coefficients.
_PPND_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
           1.9715909503065514427e3, 1.3731693765509461125e4,
           4.5921953931549871457e4, 6.7265770927008700853e4,
           3.3430575583588128105e4, 2.5090809287301226727e3)
_PPND_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
           5.3941960214247511077e3, 2.1213794301586595867e4,
           3.9307895800092710610e4, 2.8729085735721942674e4,
           5.2264952788528545610e3)
_PPND_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
           5.76949722146069140550e0, 3.64784832476320460504e0,
           1.27045825245236838258e0, 2.41780725177450611770e-1,
           2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PPND_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
           6.89767334985100004550e-1, 1.48103976427480074590e-1,
           1.51986665636164571966e-2, 5.47593808499534494600e-4,
           1.05075007164441684324e-9)
_PPND_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
           1.78482653991729133580e0, 2.96560571828504891230e-1,
           2.65321895265761230930e-2, 1.24266094738807843860e-3,
           2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PPND_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
           1.48753612908506148525e-2, 7.86869131145613259100e-4,
           1.84631831751005468180e-5, 1.42151175831644588870e-7,
           2.04426310338993978564e-15)


def _poly(coeffs, r, acc=None):
    """Horner's rule in place, coefficients lowest power first, in ``acc``
    if given (a spent buffer of r's shape) or else a new array, which
    stays an array for a 0-d r.  The first step writes r * c_last
    straight into ``acc``; ``acc *= r; acc += c`` rounds exactly as
    ``acc * r + c``: numpy never fuses the two into one multiply-add."""
    if acc is None:
        acc = np.empty_like(r)
    np.multiply(r, coeffs[-1], out=acc)
    for c in reversed(coeffs[1:-1]):
        acc += c
        acc *= r
    acc += coeffs[0]
    return acc


def normal_quantile(p):
    """Standard normal quantile Phi^{-1}(p) for p in the open unit interval.

    The flat positions of the tail entries (|p - 0.5| > 0.425) are found
    first, and their q and p gathered by ``np.take``.  The central
    rational, which covers most of a uniform sample, is then evaluated in
    place on the whole array, and the tail values are written back by
    ``np.put``.  Of those, only the ones with r > 5 (p or 1 - p below
    e^-25) take the far-tail rational, gathered and put back the same way.
    Flat indices read p in C order whatever its layout (F-ordered,
    strided or 0-d), and ``np.put`` writes through to such an ``out``.

    Raises:
        DomainError: if any p lies outside (0, 1).
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(~((p_arr > 0.0) & (p_arr < 1.0))):
        raise DomainError("normal_quantile requires p in (0, 1)")
    # out= keeps q and r arrays even for a 0-d p, so both work in place
    q = np.subtract(p_arr, 0.5, out=np.empty_like(p_arr))
    tail = np.flatnonzero(np.abs(q) > 0.425)
    qt, pt = np.take(q, tail), np.take(p_arr, tail)
    # on the tails r lies in [-0.069375, 0), where both polynomials stay
    # positive, so the values computed there (overwritten below) are finite
    r = np.multiply(q, q, out=np.empty_like(p_arr))
    np.subtract(0.180625, r, out=r)
    out = _poly(_PPND_A, r)
    out *= q                                  # rounds as q * out
    out /= _poly(_PPND_B, r, acc=q)           # q is spent
    del q, r                                  # the tail needs only out
    if qt.size:
        lower = qt < 0.0
        r = np.sqrt(-np.log(np.where(lower, pt, 1.0 - pt)))
        val = _poly(_PPND_C, r - 1.6) / _poly(_PPND_D, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        rf = np.take(r, far) - 5.0
        np.put(val, far, _poly(_PPND_E, rf) / _poly(_PPND_F, rf))
        np.negative(val, out=val, where=lower)
        np.put(out, tail, val)
    return float(out) if np.ndim(p) == 0 else out


def chisq_survival(x, df):
    """Chi-square survival function for positive even degrees of freedom.

    For df = 2n this is the exact Poisson tail
    ``exp(-x/2) * sum_{k<n} (x/2)^k / k!``, which is what combining n
    log-transformed p-values requires.

    ``df`` is a scalar, or a 1-D array giving one df per entry of x's first
    axis; a scalar df is one row holding every entry of x.  The series runs
    once over the rows sorted by decreasing df, each row dropping out once
    its terms run out, so every element gets the same floating-point
    operations whichever form it is evaluated in.  It runs in place on the
    sorted copies: each round multiplies the live rows' terms by x/2,
    divides them by k and adds them to the totals, leaving x untouched.
    A row whose every leading term ``exp(-x/2)`` underflows to 0 keeps the
    total 0 through every round, so it is sorted as if it had one term:
    the series stops at the largest df among the live rows.  An +inf
    statistic (a zero p-value in Fisher's method) has leading term 1, stays
    live, and yields survival 0.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.ndim(df) == 0:
        rows, df = x_arr.reshape(1, -1), np.asarray([df])
    else:
        rows, df = x_arr, np.asarray(df)
        if df.ndim != 1 or x_arr.ndim == 0 or x_arr.shape[0] != df.size:
            raise ValueError("array df needs one entry per row of x")
    if np.any(~((df > 0) & (df % 2 == 0))):
        raise DomainError("chisq_survival requires a positive even df")
    if np.any(~(x_arr >= 0)):
        raise DomainError("chisq_survival requires x >= 0")
    inf = np.isposinf(rows)
    half = np.where(inf, 0.0, rows / 2.0)
    with np.errstate(under="ignore"):
        term = np.exp(-half)
    live = term.any(axis=tuple(range(1, rows.ndim)))
    n_terms = np.where(live, df // 2, 1).astype(np.intp)
    # spans: (a, n) = rows [0, a) take the series terms k < n
    order = np.argsort(-n_terms, kind="stable")
    term = term[order]
    half = half[order]
    terms = n_terms[order].tolist()
    spans = [(a, terms[a - 1]) for a in range(len(terms), 0, -1)
             if a == len(terms) or terms[a - 1] > terms[a]]
    with np.errstate(under="ignore"):
        total = term.copy()
        start = 1
        for a, stop in spans:
            t, h, tot = term[:a], half[:a], total[:a]
            for k in range(start, stop):
                t *= h
                t /= k
                tot += t
            start = stop
    total[order] = total.copy()
    res = np.clip(np.where(inf, 0.0, total), 0.0, 1.0).reshape(x_arr.shape)
    return float(res) if np.ndim(x) == 0 else res


def beta_cdf(x, a, b):
    """Beta CDF with positive integer shape parameters.

    Evaluates I_x(a, b) = P(Binomial(a+b-1, x) >= a) through the lower
    binomial tail accumulated in log space, exact for the order-statistic
    distributions used by the combining functions.

    ``a`` and ``b`` are integers or integer arrays broadcasting against x,
    and every entry gets the floating-point operations of the scalar call
    with its own (a, b): the binomial log-coefficients are Python floats
    from ``math.lgamma``, computed once per distinct (a, n = a + b - 1)
    for j < a, and the lower tail accumulates the terms j < a.  An entry
    with a smaller a than the largest one has log-coefficient -inf in the
    later rounds, whose terms are exactly 0, so its tail does not change.
    """
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    if any(np.any(v < 1) or np.any(np.mod(v, 1) != 0)
           for v in (a_arr, b_arr)):
        raise DomainError("beta_cdf requires integer a >= 1, b >= 1")
    x_arr = np.asarray(x, dtype=float)
    if np.any(~((x_arr >= 0) & (x_arr <= 1))):
        raise DomainError("beta_cdf requires x in [0, 1]")
    a_arr = a_arr.astype(np.intp)
    n_arr = a_arr + b_arr.astype(np.intp) - 1
    # one row of log-coefficients per distinct (a, n), keyed as n * span + a
    # (found by a sort: np.unique would map in more of numpy's code)
    span = int(a_arr.max(initial=0)) + 1
    pair = n_arr * span + a_arr
    order = np.argsort(pair, axis=None, kind="stable")
    first = np.diff(pair.ravel()[order], prepend=-1) != 0
    inverse = np.empty(pair.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    log_c = np.full((np.count_nonzero(first), span - 1), -np.inf)
    for row, key in zip(log_c, pair.ravel()[order[first]].tolist()):
        n, a_key = divmod(key, span)
        row[:a_key] = [math.lgamma(n + 1) - math.lgamma(j + 1)
                       - math.lgamma(n - j + 1) for j in range(a_key)]
    log_c = log_c[inverse.reshape(pair.shape)]
    inner = np.clip(x_arr, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    log_x = np.log(inner)
    log_1mx = np.log1p(-inner)
    lower = np.zeros(np.broadcast_shapes(x_arr.shape, n_arr.shape))
    with np.errstate(under="ignore"):
        for j in range(span - 1):
            lower = lower + np.exp(log_c[..., j] + j * log_x
                                   + (n_arr - j) * log_1mx)
    res = np.clip(1.0 - lower, 0.0, 1.0)
    res = np.where(x_arr == 1.0, 1.0, res)
    res = np.where(x_arr == 0.0, 0.0, res)
    return float(res) if res.ndim == 0 else res
