import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ghlab.bessel import (EULER_GAMMA, NonpositiveArgument, k0, k0_integral,
                          k0_mp)


def k0_integral_oracle(x):
    """Independent oracle: K0(x) = int_0^inf exp(-x cosh t) dt."""
    tmax = math.acosh(745.0 / x) if x < 745.0 else 1.0
    val, err = quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, tmax,
                    epsabs=1e-16, epsrel=1e-13, limit=400)
    return val, err


class TestAgainstIntegralOracle:
    def test_reference_value_at_1(self):
        oracle, _ = k0_integral_oracle(1.0)
        assert abs(oracle - 0.4210244382) < 1e-9
        assert abs(k0(1.0) - 0.4210244382) < 1e-9

    def test_max_relative_error_on_working_range(self):
        xs = np.geomspace(0.05, 30.0, 90)
        worst = 0.0
        for x in xs:
            oracle, err = k0_integral_oracle(float(x))
            rel = abs(k0(float(x)) - oracle) / oracle
            worst = max(worst, rel - err / oracle)
        assert worst < 1e-10

    def test_extended_precision_path(self):
        for x in (0.3, 2.0, 7.5, 20.0, 33.0):
            oracle, _ = k0_integral_oracle(x)
            assert abs(float(k0_mp(x)) - oracle) / oracle < 1e-11


class TestBranches:
    def test_cross_branch_agreement(self):
        # series vs Chebyshev at the low switch, Chebyshev vs asymptotic high
        for x in (3.999999, 4.000001, 4.0):
            ref = float(k0_mp(x))
            assert abs(k0(x) - ref) / ref < 1e-11
        for x in (31.999, 32.001, 32.0):
            ref = float(k0_mp(x))
            assert abs(k0(x) - ref) / ref < 1e-11

    def test_asymptotic_ratio_band(self):
        ratio = k0(10.0) / (math.sqrt(math.pi / 20.0) * math.exp(-10.0))
        assert 0.9 <= ratio <= 1.0

    def test_small_argument_log_limit(self):
        # K0(x) = -log(x/2) - gamma + O(x^2 log x); the limit of
        # |K0(x) + log(x/2)| is the Euler constant
        x = 1e-4
        assert abs(abs(k0(x) + math.log(x / 2.0)) - EULER_GAMMA) < 1e-6

    def test_vectorized(self):
        xs = np.array([0.1, 1.0, 5.0, 40.0])
        vals = k0(xs)
        assert vals.shape == xs.shape
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveArgument):
            k0(0.0)
        with pytest.raises(NonpositiveArgument):
            k0(-1.0)
        with pytest.raises(NonpositiveArgument):
            k0_mp(-2.0)
        with pytest.raises(NonpositiveArgument):
            k0_integral(np.array([1.0, 0.0]))


class TestShapeProperties:
    def test_positive_decreasing_logconvex(self):
        xs = np.linspace(0.05, 25.0, 400)
        vals = k0(xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        logs = np.log(vals)
        second = logs[2:] - 2 * logs[1:-1] + logs[:-2]
        assert np.all(second >= -1e-9)

    def test_mp_matches_mpmath_library(self):
        # cross-check the in-house extended-precision path against an
        # independent high-precision implementation
        for x in (0.05, 1.0, 10.0, 30.0):
            with mp.workdps(50):
                ref = mp.besselk(0, mp.mpf(x))
            assert abs(float(k0_mp(x) - ref)) / float(ref) < 1e-14


def mpmath_k0(xs):
    with mp.workdps(30):
        return np.array([float(mp.besselk(0, mp.mpf(float(x)))) for x in xs])


class TestDoublePrecisionReferences:
    def test_integral_oracle_matches_mpmath(self):
        # the trapezoid rule that gives ghlab collapse its exact target
        xs = np.geomspace(0.5, 100.0, 120)
        ref = mpmath_k0(xs)
        assert np.max(np.abs(k0_integral(xs) - ref) / ref) <= 1e-14

    def test_asymptotic_branch_matches_mpmath(self):
        xs = np.linspace(32.0, 700.0, 300)
        ref = mpmath_k0(xs)
        assert np.max(np.abs(k0(xs) - ref) / ref) <= 1e-15

    def test_asymptotic_branch_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.uniform(0.05, 32.0, 40),
                             32.0 + rng.exponential(40.0, 60), [32.0]])
        rng.shuffle(xs)
        got = k0(xs)
        large = np.flatnonzero(xs >= 32.0)
        assert all(got[i] == k0(xs[i:i + 1])[0] for i in large)


def build_cheb_table(degree=48, lo=1.0 / 32.0, hi=1.0 / 4.0):
    """The fit behind bessel._CHEB_COEFFS: g(s) = log K0(x) + x + log(x)/2
    at the first-kind Chebyshev nodes in s = 1/x, from k0_mp, then a
    discrete cosine sum."""
    n = degree
    j = np.arange(n + 1)
    xc = np.cos(np.pi * (j + 0.5) / (n + 1))
    svals = 0.5 * (hi - lo) * xc + 0.5 * (hi + lo)
    g = np.empty(n + 1)
    for i, s in enumerate(svals):
        x = 1.0 / s
        with mp.workdps(40 + int(x)):
            val = mp.log(k0_mp(x)) + x + mp.log(x) / 2
        g[i] = float(val)
    coeffs = np.empty(n + 1)
    for k in range(n + 1):
        coeffs[k] = (2.0 / (n + 1)) * np.sum(
            g * np.cos(np.pi * k * (j + 0.5) / (n + 1)))
    coeffs[0] *= 0.5
    return coeffs


class TestChebyshevBranch:
    def test_stored_table_is_the_mpmath_fit(self):
        from ghlab.bessel import _CHEB_COEFFS, _CHEB_HI, _CHEB_LO

        assert (_CHEB_LO, _CHEB_HI) == (1.0 / 32.0, 1.0 / 4.0)
        assert np.array_equal(_CHEB_COEFFS, build_cheb_table()[:15])

    def test_truncated_table_matches_mpmath(self):
        # degree 14 of the degree-48 fit: coefficients 15-48 are rounding
        # noise, and with them the error here is 4.0e-15
        xs = np.linspace(4.0, 32.0, 152)[1:-1]
        ref = np.array([float(mp.besselk(0, mp.mpf(x))) for x in xs])
        assert np.max(np.abs(k0(xs) - ref) / ref) <= 3e-15

    def test_blocked_batch_equals_unblocked_recurrence(self):
        # three full Clenshaw blocks and a ragged tail, all mid-range; the
        # oracle is the one-pass recurrence on the whole batch, and scalar
        # calls at both sides of every block boundary
        from ghlab.bessel import _CHEB_BLOCK, _CHEB_COEFFS, _CHEB_HI, _CHEB_LO

        xs = np.random.default_rng(9).uniform(4.001, 31.999,
                                              3 * _CHEB_BLOCK + 5)
        lo, hi = _CHEB_LO, _CHEB_HI
        t = (2.0 * (1.0 / xs) - (lo + hi)) / (hi - lo)
        b1, b2 = np.zeros_like(t), np.zeros_like(t)
        for c in _CHEB_COEFFS[:0:-1]:
            b1, b2 = 2.0 * t * b1 - b2 + c, b1
        g = t * b1 - b2 + _CHEB_COEFFS[0]
        got = k0(xs)
        assert np.array_equal(got, np.exp(g - xs) / np.sqrt(xs))
        edges = [0, xs.size - 1] + [i for b in (1, 2, 3)
                                    for i in (b * _CHEB_BLOCK - 1,
                                              b * _CHEB_BLOCK)]
        assert all(got[i] == k0(float(xs[i])) for i in edges)
