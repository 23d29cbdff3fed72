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

    @staticmethod
    def assert_does_not_increase(xs):
        vals = k0(xs)
        assert np.all(vals[1:] <= vals[:-1] * (1 + 1e-10))

    def test_does_not_increase_across_the_branch_seams(self):
        # PeriodicFourierSolution.value stops a mode sum on this premise,
        # and the branches meeting at 4 and 32 agree only to 1e-11
        for seam in (4.0, 32.0):
            ulps = np.float64(seam).view(np.int64) + np.arange(-5000, 5001)
            self.assert_does_not_increase(ulps.view(np.float64))
            self.assert_does_not_increase(
                seam + 1e-9 * np.arange(-20000, 20001))

    def test_does_not_increase_on_the_working_range(self):
        self.assert_does_not_increase(np.geomspace(0.01, 700.0, 200001))

    def test_does_not_increase_into_underflow(self):
        # e^{-x} is subnormal from x = 708 and 0 from x = 745.2
        xs = np.linspace(690.0, 760.0, 70001)
        assert k0(xs[-1]) == 0.0
        self.assert_does_not_increase(xs)


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

    def test_k0_does_not_depend_on_the_batch(self):
        # every branch, and both branch edges: a value has the bits of its
        # one-point call, which blocked callers such as the periodic mode
        # sum rely on.  Past four blocks: one all middle-range, one mixed
        # (with the largest series argument, 4), one with no middle-range
        # argument, one all asymptotic, and a mixed ragged tail.  The series
        # runs on pools of about a block of its arguments, each to the term
        # count of its largest (18 terms for the pool holding 4), and a
        # one-point call to that of its own argument (3 at x = 1e-3)
        from ghlab.bessel import _BLOCK as B

        rng = np.random.default_rng(5)

        def wide(n):
            return np.exp(rng.uniform(math.log(1e-10), math.log(700.0), n))

        mixed = np.concatenate([wide(B - 2), [4.0, 32.0]])
        rng.shuffle(mixed)
        outer = np.concatenate([rng.uniform(1e-3, 3.99, B // 2),
                                rng.uniform(32.0, 700.0, B // 2)])
        rng.shuffle(outer)
        xs = np.concatenate([rng.uniform(4.001, 31.999, B), mixed, outer,
                             rng.uniform(32.0, 700.0, B), wide(3000)])
        got = k0(xs)
        assert np.max(xs[2 * B:][xs[2 * B:] <= 4.0]) < 4.0
        edges = [i for b in (1, 2, 3, 4) for i in (b * B - 1, b * B)]
        checked = np.union1d(rng.choice(4 * B, 4000, replace=False),
                             np.arange(4 * B, xs.size))
        checked = np.union1d(checked, edges + [0] + list(
            np.flatnonzero((xs == 4.0) | (xs == 32.0))))
        for i in checked:
            assert got[i] == k0(xs[i:i + 1])[0], i

    def test_block_composition_keeps_every_bit_without_a_warning(self):
        # blocks all series, all middle-range and all asymptotic, then two
        # mixed blocks with exactly half and with one more than half of
        # their arguments middle-range: the second runs the middle branch
        # on the whole block, where 1/x overflows at x = 1e-300 and the
        # recurrence makes inf and nan, and the outer branches overwrite
        # those entries.  The mixed blocks hold 4, 32 and their neighbours,
        # which are checked with 1,000 entries of every block
        import warnings

        from ghlab.bessel import _BLOCK as B

        rng = np.random.default_rng(41)

        def series(n):
            return np.exp(rng.uniform(math.log(1e-300), math.log(4.0), n))

        def middle(n):
            return rng.uniform(np.nextafter(4.0, 5.0), 32.0, n)

        def asymptotic(n):
            return rng.uniform(32.0, 700.0, n)

        # the branch edges and their neighbours, two of them middle-range
        edges = [np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0),
                 np.nextafter(32.0, 0.0), 32.0, np.nextafter(32.0, 33.0)]

        def mixed(n_mid):
            rest = B - n_mid - 4
            xs = np.concatenate([middle(n_mid - 2), edges, series(rest // 2),
                                 asymptotic(rest - rest // 2)])
            rng.shuffle(xs)
            assert np.count_nonzero((xs > 4.0) & (xs < 32.0)) == n_mid
            return xs

        xs = np.concatenate([series(B), middle(B), asymptotic(B),
                             mixed(B // 2), mixed(B // 2 + 1), mixed(7)])
        at_edge = np.isin(xs, edges)
        checked = np.union1d(np.flatnonzero(at_edge), np.concatenate(
            [rng.choice(B, 1000, replace=False) + b * B for b in range(5)]
            + [np.arange(5 * B, xs.size)]))
        assert np.count_nonzero(at_edge) == 18
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = k0(xs)
            one = np.array([k0(x) for x in xs[checked]])
        assert np.array_equal(got[checked], one)

    @pytest.mark.parametrize("lo, hi", [(0.05, 30.0), (1e-3, 4.0),
                                        (32.0, 700.0)],
                             ids=["mixed", "series", "asymptotic"])
    def test_k0_holds_no_full_size_copy(self, lo, hi):
        # the result is the only full-size temporary: on 2^20 arguments of
        # the benchmark's range, or all in one outer branch, the traced peak
        # stays within 1.8 times its bytes, which a full-size gather of a
        # branch's arguments and that branch's own output exceed (3.2, 3.2
        # and 7.1 times).  Measured with numpy 2.4: 1.09, 1.08, 1.04 times
        import tracemalloc

        xs = np.random.default_rng(12).uniform(lo, hi, 2 ** 20)
        k0(xs[:64])
        tracemalloc.start()
        try:
            got = k0(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * got.nbytes, peak / got.nbytes


def build_cheb_table(degree=48, lo=1.0 / 32.0, hi=1.0 / 4.0):
    """The fit behind bessel._CHEB_COEFFS: g(s) = log K0(x) + x + log(x)/2
    at the first-kind Chebyshev nodes in s = 1/x, from k0_mp (mpmath's K0),
    then a discrete cosine sum."""
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
        from ghlab.bessel import _BLOCK, _CHEB_COEFFS, _CHEB_HI, _CHEB_LO

        xs = np.random.default_rng(9).uniform(4.001, 31.999,
                                              3 * _BLOCK + 5)
        lo, hi = _CHEB_LO, _CHEB_HI
        t = (2.0 * (1.0 / xs) - (lo + hi)) / (hi - lo)
        b1, b2 = np.zeros_like(t), np.zeros_like(t)
        for c in _CHEB_COEFFS[:0:-1]:
            b1, b2 = 2.0 * t * b1 - b2 + c, b1
        g = t * b1 - b2 + _CHEB_COEFFS[0]
        got = k0(xs)
        assert np.array_equal(got, np.exp(g - xs) / np.sqrt(xs))
        edges = [0, xs.size - 1] + [i for b in (1, 2, 3)
                                    for i in (b * _BLOCK - 1,
                                              b * _BLOCK)]
        assert all(got[i] == k0(float(xs[i])) for i in edges)
