"""Modified Bessel function of the second kind, order zero.

Three branches, all in-house:

* ``x <= 4``: ascending series
      K0(x) = -(log(x/2) + gamma) I0(x) + sum_{k>=1} (x^2/4)^k / (k!)^2 * H_k,
  evaluated in double precision (cancellation loses ~2*x/ln(10) digits, which
  stays below 1e-12 relative here).
* ``4 < x < 32``: Chebyshev interpolant of log(K0) + x + log(x)/2 in 1/x,
  built once at first use from the same ascending series evaluated with
  mpmath extended-precision arithmetic (precision scaled with x so the
  cancellation is absorbed).  mpmath is used as a bignum engine only.
* ``x >= 32``: Poincare asymptotic series
      K0(x) ~ sqrt(pi/(2x)) e^{-x} sum_k c_k / x^k,
      c_k = (-1)^k (1^2 3^2 ... (2k-1)^2) / (k! 8^k),
  truncated adaptively at the smallest term (<= 30 terms); the optimal
  truncation error is ~e^{-2x} relative, far below 1e-13 for x >= 32.

Branch boundaries are covered by tests asserting cross-branch agreement to
1e-11.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024

_SERIES_MAX = 4.0
_ASYM_MIN = 32.0
_CHEB_DEGREE = 48


class NonpositiveArgument(ValueError):
    pass


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


def _k0_asym_double(x):
    """Poincare asymptotic series, vectorized; terms stop at 1e-18 or growth."""
    x = np.asarray(x, dtype=float)
    pref = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    s = np.ones_like(x)
    term = np.ones_like(x)
    active = np.ones_like(x, dtype=bool)
    for k in range(1, 31):
        new = term * (-((2 * k - 1) ** 2) / (8.0 * k)) / x
        growing = np.abs(new) >= np.abs(term)
        active = active & ~growing
        s = np.where(active, s + new, s)
        term = new
        if not np.any(active) or np.max(np.abs(new[active]), initial=0.0) < 1e-18:
            break
    return pref * s


_cheb_coeffs = None


def _build_cheb():
    """Chebyshev fit of g(s) = log K0(x) + x + log(x)/2 with s linear in 1/x."""
    global _cheb_coeffs
    n = _CHEB_DEGREE
    lo, hi = 1.0 / _ASYM_MIN, 1.0 / _SERIES_MAX
    # Chebyshev nodes of the first kind in s = 1/x
    j = np.arange(n + 1)
    xc = np.cos(np.pi * (j + 0.5) / (n + 1))
    svals = 0.5 * (hi - lo) * xc + 0.5 * (hi + lo)
    g = np.empty(n + 1)
    for i, s in enumerate(svals):
        x = 1.0 / s
        with mp.workdps(40 + int(x)):
            val = mp.log(k0_mp(x)) + x + mp.log(x) / 2
        g[i] = float(val)
    # discrete cosine fit at the nodes
    coeffs = np.empty(n + 1)
    for k in range(n + 1):
        coeffs[k] = (2.0 / (n + 1)) * np.sum(
            g * np.cos(np.pi * k * (j + 0.5) / (n + 1)))
    coeffs[0] *= 0.5
    _cheb_coeffs = (coeffs, lo, hi)


def _k0_cheb(x):
    """Chebyshev middle branch, vectorized (Clenshaw recurrence)."""
    if _cheb_coeffs is None:
        _build_cheb()
    coeffs, lo, hi = _cheb_coeffs
    x = np.asarray(x, dtype=float)
    s = 1.0 / x
    t = (2.0 * s - (lo + hi)) / (hi - lo)
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    g = t * b1 - b2 + coeffs[0]
    return np.exp(g - x) / np.sqrt(x)


def k0(x):
    """K0(x) for scalar or array x > 0; relative error <= 1e-10 on [0.05, 30]."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise NonpositiveArgument("K0 needs finite x > 0")
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

