"""Modified Bessel function of the second kind, order zero.

Three double-precision branches, all in-house:

* ``x <= 4``: ascending series
      K0(x) = -(log(x/2) + gamma) I0(x) + sum_{k>=1} (x^2/4)^k / (k!)^2 * H_k,
  evaluated in double precision (cancellation loses ~2*x/ln(10) digits, which
  stays below 1e-12 relative here).
* ``4 < x < 32``: Chebyshev interpolant of log(K0) + x + log(x)/2 in 1/x,
  a stored table fitted from mpmath's K0 (``k0_mp``); ``k0`` runs it on all
  of a block mostly in this range, Clenshaw's recurrence from its third step.
* ``x >= 32``: Poincare asymptotic series
      K0(x) ~ sqrt(pi/(2x)) e^{-x} sum_k c_k / x^k,
      c_k = (-1)^k (1^2 3^2 ... (2k-1)^2) / (k! 8^k),
  a fixed 17-term Horner polynomial in 1/x: the first omitted term is
  below 1.3e-18 relative at x = 32.

References: ``k0_mp``, mpmath's ``besselk`` at int(25 + 0.9 x) digits
(mpmath is imported only there), and ``k0_integral``, a trapezoid rule on
the integral that shares no code with ``k0``.

Branch boundaries are covered by tests asserting cross-branch agreement to
1e-11.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606065120900824024

_SERIES_MAX = 4.0
_ASYM_MIN = 32.0
# k0 walks its batch in blocks this long and sums the series about this many
# arguments at a time, so that the branches' buffers stay in cache
_BLOCK = 8192


class NonpositiveArgument(ValueError):
    pass


def _arguments(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise NonpositiveArgument("K0 needs finite x > 0")
    return x


def _k0_series(x):
    """Ascending series in double precision (x <= ~5), in place.

    The term count is set by the largest t = x^2/4 of ``x``: the first k
    with t^k/(k!)^2 (H_k + 1) < 1e-19, a tail below the rounding of every
    sum in ``x``, so that a sum run to more terms keeps its bits.
    """
    # x^2/4 rounds monotonically, so its largest value is that of max(x)
    xmax = float(np.max(x))
    tmax, top, h, steps = xmax * xmax / 4.0, 1.0, 0.0, []
    while top * (h + 1.0) >= 1e-19 and len(steps) < 59:
        k = len(steps) + 1
        top, h = top * tmax / (k * k), h + 1.0 / k
        steps.append((k * k, h))
    t = x * x / 4.0
    i0, s, term, tmp = (np.ones_like(t), np.zeros_like(t), np.ones_like(t),
                        np.empty_like(t))
    for kk, h in steps:
        term *= t
        term /= kk
        i0 += term
        s += np.multiply(term, h, out=tmp)
    return -(np.log(x / 2.0) + EULER_GAMMA) * i0 + s


def k0_mp(x):
    """mpmath's K0 as an mpf, at int(25 + 0.9 x) significant digits, the
    precision at which the Chebyshev table was fitted."""
    import mpmath as mp

    x = mp.mpf(x)
    if x <= 0:
        raise NonpositiveArgument(f"K0 needs x > 0, got {x}")
    with mp.workdps(int(25 + 0.9 * float(x))):
        return +mp.besselk(0, x)


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
# [1/32, 1/4], fitted at the 49 first-kind nodes from mpmath's K0 (k0_mp)
# by a discrete cosine sum (tests/test_bessel.py rebuilds them bit for bit).
# Only the first 15 (degree 14) are kept: the rest are rounding noise of the
# fit, and without them the branch is both faster and closer to mpmath's K0.
_CHEB_LO, _CHEB_HI = 1.0 / _ASYM_MIN, 1.0 / _SERIES_MAX
_CHEB_COEFFS = np.array([
    0.2095597917547311, -0.012111911755778965, 0.0002611274859010987,
    -1.074864614806056e-05, 6.149302437332059e-07, -4.351214930428274e-08,
    3.590813477626557e-09, -3.3376959926049004e-10, 3.4154487628135675e-11,
    -3.786438283096843e-12, 4.4939902139742797e-13, -5.6506953311508345e-14,
    7.42603257797745e-15, -1.1396779211968442e-15, 1.325470345725952e-16,
])


def _k0_cheb(x):
    """Chebyshev middle branch on one block, by Clenshaw's recurrence."""
    # its first two steps from b1 = b2 = 0 are exact: b1 = c14, then
    # b1 = t2 c14 + c13 and b2 = c14
    t = (2.0 * (1.0 / x) - (_CHEB_LO + _CHEB_HI)) / (_CHEB_HI - _CHEB_LO)
    t2 = 2.0 * t
    b2, tmp = np.full_like(t, _CHEB_COEFFS[14]), np.empty_like(t)
    b1 = t2 * _CHEB_COEFFS[14] + _CHEB_COEFFS[13]
    for c in _CHEB_COEFFS[12:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += c
        b1, b2, tmp = tmp, b1, b2
    g = t * b1 - b2 + _CHEB_COEFFS[0]
    return np.exp(g - x) / np.sqrt(x)


def k0(x):
    """K0(x), scalar or array x > 0; relative error <= 3e-13 for x <= 4, where
    the series cancels, and <= 3e-15 on (4, 700].

    The batch is walked in blocks of ``_BLOCK`` arguments.  The middle branch
    runs on all of a block that lies mostly in it (the others overwrite its
    inf or nan there), else on a gather of its entries, as the asymptotic
    branch does; the series runs once about ``_BLOCK`` of its arguments have
    been gathered.  So the result is the only full-size array."""
    arr = _arguments(x)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    series = []  # indices of series arguments not yet summed
    for start in range(0, flat.size, _BLOCK):
        xb, ob = flat[start:start + _BLOCK], out[start:start + _BLOCK]
        small, large = xb <= _SERIES_MAX, xb >= _ASYM_MIN
        middle = ~(small | large)
        # measured on blocks of 8,192: the whole block is faster once about
        # half of it is in range (as in the benchmark's 10^6-argument call),
        # the gather below that (4x when a tenth is)
        if 2 * np.count_nonzero(middle) > xb.size:
            with np.errstate(over="ignore", invalid="ignore"):
                ob[...] = _k0_cheb(xb)
        elif middle.any():
            ob[middle] = _k0_cheb(xb[middle])
        if large.all():
            ob[...] = _k0_asym_double(xb)
        elif large.any():
            ob[large] = _k0_asym_double(xb[large])
        series.append(start + np.flatnonzero(small))
        if start + _BLOCK >= flat.size or sum(map(len, series)) >= _BLOCK:
            idx = np.concatenate(series)
            if idx.size:
                out[idx] = _k0_series(flat[idx])
            series = []
    return float(out[0]) if scalar else out.reshape(arr.shape)
