"""Modified Bessel function of the second kind, order zero.

Three double-precision branches, all in-house:

* ``x <= 4``: ascending series
      K0(x) = -(log(x/2) + gamma) I0(x) + sum_{k>=1} (x^2/4)^k / (k!)^2 * H_k,
  evaluated in double precision (cancellation loses ~2*x/ln(10) digits, which
  stays below 1e-12 relative here).
* ``4 < x < 32``: Chebyshev interpolant of log(K0) + x + log(x)/2 in 1/x,
  a stored table fitted from the extended-precision series ``k0_mp``.
* ``x >= 32``: Poincare asymptotic series
      K0(x) ~ sqrt(pi/(2x)) e^{-x} sum_k c_k / x^k,
      c_k = (-1)^k (1^2 3^2 ... (2k-1)^2) / (k! 8^k),
  a fixed 17-term Horner polynomial in 1/x: the first omitted term is
  below 1.3e-18 relative at x = 32.

References: ``k0_mp``, the same series in mpmath's arbitrary precision
(imported only there), and ``k0_integral``, which shares no code with them.

Branch boundaries are covered by tests asserting cross-branch agreement to
1e-11.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024

_SERIES_MAX = 4.0
_ASYM_MIN = 32.0


class NonpositiveArgument(ValueError):
    pass


def _arguments(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise NonpositiveArgument("K0 needs finite x > 0")
    return x


def _k0_series_double(x):
    """Ascending series in double precision (x <= ~5), vectorized."""
    x = np.asarray(x, dtype=float)
    t = x * x / 4.0
    i0 = np.ones_like(t)
    s = np.zeros_like(t)
    h = 0.0
    term = np.ones_like(t)
    for k in range(1, 60):
        term = term * t / (k * k)
        i0 += term
        h += 1.0 / k
        s += term * h
        if np.max(term) * (h + 1.0) < 1e-19 * (np.max(np.abs(s)) + 1.0):
            break
    return -(np.log(x / 2.0) + EULER_GAMMA) * i0 + s


def k0_mp(x, dps=None):
    """Extended-precision K0 via the same ascending/asymptotic algorithm.

    Returns an mpmath mpf.  ``dps`` defaults to enough digits to absorb the
    e^{2x} series cancellation plus a 25-digit guard.
    """
    import mpmath as mp

    x = mp.mpf(x)
    if x <= 0:
        raise NonpositiveArgument(f"K0 needs x > 0, got {x}")
    if dps is None:
        dps = int(25 + 0.9 * float(x))
    with mp.workdps(dps):
        if x >= 64:
            return _k0_asym_mp(x)
        t = x * x / 4
        i0 = mp.mpf(1)
        s = mp.mpf(0)
        h = mp.mpf(0)
        term = mp.mpf(1)
        eps = mp.mpf(10) ** (-dps - 5)
        k = 0
        while True:
            k += 1
            term *= t / (k * k)
            i0 += term
            h += mp.mpf(1) / k
            s += term * h
            if term * (h + 1) < eps * (abs(s) + 1):
                break
            if k > 10000:
                raise RuntimeError("K0 series did not converge")
        val = -(mp.log(x / 2) + mp.euler) * i0 + s
    return val


def _k0_asym_mp(x):
    import mpmath as mp

    pref = mp.sqrt(mp.pi / (2 * x)) * mp.exp(-x)
    term = mp.mpf(1)
    s = mp.mpf(1)
    for k in range(1, 40):
        term *= -((2 * k - 1) ** 2) / (8 * k * x)
        if abs(term) > 1:
            break
        s += term
        if abs(term) < mp.mpf(10) ** (-mp.mp.dps):
            break
    return pref * s


# c_0 ... c_16 of the asymptotic series, for Horner's rule in 1/x
_ASYM_COEFFS = [math.prod(-(2 * j - 1) ** 2 / (8.0 * j)
                          for j in range(1, k + 1)) for k in range(17)]


def _k0_asym_double(x):
    """Poincare asymptotic series on a float array, x >= 32."""
    z = 1.0 / x
    s = np.full_like(z, _ASYM_COEFFS[-1])
    for c in _ASYM_COEFFS[-2::-1]:
        s *= z
        s += c
    return np.sqrt(np.pi / (2.0 * x)) * np.exp(-x) * s


def k0_integral(x):
    """K0(x) = e^{-x} int_0^inf e^{-x (cosh t - 1)} dt, trapezoid rule, x > 0.

    An oracle for ``k0``.  The integrand is analytic for |Im t| < pi/2 and
    near a Gaussian of width x^{-1/2}, so a step min(1/8, 0.6/sqrt(x)) and
    a cut where it falls below e^{-44} leave an error below rounding."""
    x = _arguments(x)
    h = min(0.125, 0.6 / math.sqrt(np.max(x)))
    t = h * np.arange(math.acosh(1.0 + 44.0 / np.min(x)) / h + 1.0)
    f = np.exp(-np.multiply.outer(x, 2.0 * np.sinh(0.5 * t) ** 2))
    # the node t = 0, where f = 1, has half weight
    return h * np.exp(-x) * (np.sum(f, axis=-1) - 0.5)


# Chebyshev coefficients of g(s) = log K0(x) + x + log(x)/2, s = 1/x on
# [1/32, 1/4], fitted at the 49 first-kind nodes from k0_mp by a discrete
# cosine sum (tests/test_bessel.py rebuilds them bit for bit).  Only the
# first 15 (degree 14) are kept: the rest are rounding noise of the fit, and
# without them the branch is both faster and closer to mpmath's K0.
_CHEB_LO, _CHEB_HI = 1.0 / _ASYM_MIN, 1.0 / _SERIES_MAX
_CHEB_COEFFS = np.array([
    0.2095597917547311, -0.012111911755778965, 0.0002611274859010987,
    -1.074864614806056e-05, 6.149302437332059e-07, -4.351214930428274e-08,
    3.590813477626557e-09, -3.3376959926049004e-10, 3.4154487628135675e-11,
    -3.786438283096843e-12, 4.4939902139742797e-13, -5.6506953311508345e-14,
    7.42603257797745e-15, -1.1396779211968442e-15, 1.325470345725952e-16,
])
# Clenshaw runs on blocks this long, so that its buffers stay in cache
_CHEB_BLOCK = 8192


def _k0_cheb(x):
    """Chebyshev middle branch on a float array (Clenshaw recurrence)."""
    lo, hi = _CHEB_LO, _CHEB_HI
    out = np.empty_like(x)
    for start in range(0, x.size, _CHEB_BLOCK):
        xb = x[start:start + _CHEB_BLOCK]
        t = (2.0 * (1.0 / xb) - (lo + hi)) / (hi - lo)
        t2 = 2.0 * t
        b1, b2, tmp = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
        for c in _CHEB_COEFFS[:0:-1]:
            np.multiply(t2, b1, out=tmp)
            tmp -= b2
            tmp += c
            b1, b2, tmp = tmp, b1, b2
        g = t * b1 - b2 + _CHEB_COEFFS[0]
        out[start:start + _CHEB_BLOCK] = np.exp(g - xb) / np.sqrt(xb)
    return out


def k0(x):
    """K0(x), scalar or array x > 0; relative error <= 3e-13 for x <= 4, where
    the series cancels, and <= 3e-15 on (4, 700]."""
    arr = _arguments(x)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    small = flat <= _SERIES_MAX
    large = flat >= _ASYM_MIN
    mid = ~small & ~large
    if small.any():
        out[small] = _k0_series_double(flat[small])
    if mid.any():
        out[mid] = _k0_cheb(flat[mid])
    if large.any():
        out[large] = _k0_asym_double(flat[large])
    return float(out[0]) if scalar else out.reshape(arr.shape)

