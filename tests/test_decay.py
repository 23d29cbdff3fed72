import math

import numpy as np
import pytest

from ghlab.bessel import k0
from ghlab.decay import (
    AliasingDetected,
    InsufficientPoints,
    collapse_distance,
    decay_fit,
    fiber_diameter,
    fourier_modes,
    ronkin_collapse,
)
from ghlab.ghcore import DomainViolation
from ghlab.solutions import PeriodicFourierSolution, ooguri_vafa
from ghlab.tropical import LaurentPoly

PDOUBLE = LaurentPoly.make([((0,), 1.0), ((1,), 1.0), ((2,), 0.25)])


class TestFourierModes:
    def test_roundtrip_on_ov(self):
        sol = ooguri_vafa(1.0, 6, a=3.0)
        got = fourier_modes(sol, (0.9, 0.7), M=6, nodes=64)
        for m in range(-6, 7):
            want = sol.mode_value(m, 0.9, 0.7)
            assert abs(got[m] - complex(want)) < 1e-10

    def test_constant_in_y(self):
        f = lambda pts: 2.5 + 0.0 * pts[:, 2]
        got = fourier_modes(f, (0.3, 0.4), M=4, nodes=32)
        assert got[0] == pytest.approx(2.5)
        for m in range(1, 5):
            assert abs(got[m]) < 1e-14

    def test_pure_cosine(self):
        f = lambda pts: np.cos(pts[:, 2])
        got = fourier_modes(f, (0.0, 0.0), M=2, nodes=32)
        assert got[1] == pytest.approx(0.5)
        assert got[-1] == pytest.approx(0.5)
        assert abs(got[2]) < 1e-14

    def test_synthesis_inverse(self):
        modes = {0: 1.0, 1: 0.25 - 0.1j, -1: 0.25 + 0.1j,
                 3: 0.05j, -3: -0.05j}

        def f(pts):
            y = pts[:, 2]
            return sum(c * np.exp(1j * m * y) for m, c in modes.items()).real

        got = fourier_modes(f, (0.0, 0.0), M=4, nodes=16)
        for m, c in modes.items():
            assert abs(got[m] - c) < 1e-12

    def test_aliasing_detected(self):
        f = lambda pts: np.cos(8 * pts[:, 2])
        with pytest.raises(AliasingDetected):
            fourier_modes(f, (0.0, 0.0), M=3, nodes=16)

    def test_nodes_guard(self):
        with pytest.raises(ValueError):
            fourier_modes(lambda pts: pts[:, 2], (0, 0), M=8, nodes=16)


class TestDecayFit:
    def grid(self, rlo, rhi, npts=12):
        return np.stack([np.linspace(rlo, rhi, npts),
                         np.zeros(npts)], axis=-1)

    def test_ov_slopes_match_bessel_oracle(self):
        # oracle slopes from the closed form K0(m r)/(2 pi): the prefactor
        # sqrt(pi/(2 m r)) biases low modes; frozen oracle values:
        #   m=1: 1.294, m=2: 1.154, m=3: 1.105, m=4: 1.080, m=5: 1.064
        sol = ooguri_vafa(1.0, 8, a=4.0)
        rep = decay_fit(sol, self.grid(0.5, 3.0), M=8, nodes=128)
        oracle = {1: 1.2939, 2: 1.1545, 3: 1.1052, 4: 1.0798, 5: 1.0643}
        for m, want in oracle.items():
            assert rep.fits[m].rate == pytest.approx(want, abs=2e-3)
        for m in (4, 5, 6, 7, 8):
            assert rep.fits[m].passed

    def test_slopes_closer_to_one_outward(self):
        sol = ooguri_vafa(1.0, 5, a=4.0)
        near = decay_fit(sol, self.grid(0.5, 1.0), M=5, nodes=128,
                         rms_limit=1.0)
        far = decay_fit(sol, self.grid(2.0, 4.0), M=5, nodes=128,
                        rms_limit=1.0)
        for m in range(1, 6):
            assert abs(far.fits[m].rate - 1.0) < abs(near.fits[m].rate - 1.0)

    def test_synthetic_rate_two_recovered(self):
        def f(pts):
            u, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
            beta = np.hypot(u, x)
            out = np.zeros_like(u)
            for m in range(1, 6):
                out += 0.7 * np.exp(-2.0 * beta * m) * np.cos(m * y)
            return out

        rep = decay_fit(f, self.grid(0.5, 3.0), M=5, nodes=64)
        for m in range(1, 6):
            assert rep.fits[m].rate == pytest.approx(2.0, rel=1e-6)
            # the band [0.9, 1.1] is fixed: a rate of 2 fails it
            assert not rep.fits[m].passed
        assert not rep.all_passed

    def test_mode_free_field_fails(self):
        f = lambda pts: 1.0 + 0.0 * pts[:, 2]
        rep = decay_fit(f, self.grid(0.5, 3.0), M=3, nodes=32)
        for m in (1, 2, 3):
            assert math.isfinite(rep.fits[m].rate)
            assert not rep.fits[m].passed
        assert rep.all_passed is False

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            decay_fit(lambda pts: pts[:, 2], self.grid(0.5, 3.0, npts=4),
                      M=2, nodes=16)

    def test_min_beta_prunes(self):
        grid = np.vstack([self.grid(0.05, 0.15, 6), self.grid(0.5, 3.0, 12)])
        sol = ooguri_vafa(1.0, 3, a=4.0)
        rep = decay_fit(sol, grid, M=3, nodes=64, rms_limit=1.0)
        assert rep.betas.min() >= 0.2
        assert len(rep.betas) == 12

    def test_csv_rows(self):
        sol = ooguri_vafa(1.0, 3, a=4.0)
        rep = decay_fit(sol, self.grid(0.5, 2.0, 9), M=3, nodes=64,
                        rms_limit=1.0)
        rows = rep.to_csv_rows()
        assert len(rows) == 3 * 9
        assert rep.csv_header() == ["m", "beta", "abs_mode", "log_abs_mode",
                                    "fit_pred"]


class TestCollapse:
    @staticmethod
    def split_limit(p):
        # positive harmonic-plus-log profile used as the exact limit
        return 4.0 - math.log(math.hypot(p[0], p[1])) / (2 * math.pi)

    def family(self, lam):
        limit = self.split_limit

        def fieldfn(pts):
            pts = np.atleast_2d(pts)
            base = np.array([limit((p[0] / lam, p[1] / lam)) for p in pts])
            rho = np.hypot(pts[:, 0], pts[:, 1])
            modes = sum(2 * np.cos(m * pts[:, 2]) * k0(m * rho) / (2 * np.pi)
                        for m in range(1, 6))
            return base + modes

        return fieldfn

    def test_exact_family_distance_zero(self):
        grid = [(0.5, 0.0), (0.8, 0.4), (1.2, -0.3)]
        rep = collapse_distance(self.family, self.split_limit,
                                [2.0, 4.0, 8.0], grid, nodes=64)
        assert max(rep.sup_distances) < 1e-12
        assert rep.non_increasing

    def test_perturbed_family_scales_inverse_lambda(self):
        def family(lam):
            base = self.family(lam)
            return lambda pts: base(pts) + 0.3 / lam

        grid = [(0.5, 0.0), (1.0, 0.5)]
        rep = collapse_distance(family, self.split_limit,
                                [1.0, 2.0, 4.0, 8.0], grid, nodes=64)
        assert np.allclose(rep.sup_distances, [0.3, 0.15, 0.075, 0.0375],
                           atol=1e-12)
        assert rep.non_increasing

    def test_grid_too_close_rejected(self):
        with pytest.raises(DomainViolation):
            collapse_distance(self.family, self.split_limit, [1.0],
                              [(0.05, 0.0)], beta_fn=np.linalg.norm)

    def test_one_field_call_per_lambda_keeps_per_point_bits(self,
                                                            monkeypatch):
        # the benchmark's family: a multi-row FFT gives each row the bits
        # of its one-row transform, so every sup distance is bitwise that of
        # a per-point extraction; with the limit 0 each sup is the largest
        # |zero mode| itself
        a = 4.5

        def family(lam):
            return PeriodicFourierSolution(
                lam, 5, a, check_positive=False,
                zero_mode=lambda u, x: a - np.log(np.hypot(u, x) / lam)
                / (2.0 * np.pi))

        grid = [(0.5, 0.0), (1.0, 0.5), (1.5, -0.5)]
        lambdas = [1.0, 5.0, 25.0]
        for limit in (lambda q: a - math.log(math.hypot(*q)) / (2 * math.pi),
                      lambda q: 0.0):
            want = [max(abs(fourier_modes(family(lam), (lam * q[0],
                                                        lam * q[1]),
                                          0, nodes=128)[0].real - limit(q))
                        for q in grid) for lam in lambdas]
            calls = []
            value = PeriodicFourierSolution.value

            def counted(sol, pts):
                calls.append(len(pts))
                return value(sol, pts)

            monkeypatch.setattr(PeriodicFourierSolution, "value", counted)
            rep = collapse_distance(family, limit, lambdas, grid, nodes=128)
            monkeypatch.undo()
            assert rep.sup_distances == want
            assert calls == [3 * 128] * 3

    def test_ronkin_collapse_strictly_decreasing(self):
        grid = np.linspace(-2.0, 2.0, 17)[:, None]
        rep = ronkin_collapse(PDOUBLE, [1.0, 5.0, 25.0], grid, nodes=128)
        assert rep.sup_distances[0] > rep.sup_distances[1] > rep.sup_distances[2]
        # oracle: N(x) = log(1/4) + 2 max(x, log 2), so the sup against
        # max(0, 2t) on [-2, 2] is 2 log 2 / lam (attained near t = log2/lam)
        assert rep.sup_distances[0] == pytest.approx(2 * math.log(2), abs=2e-3)
        assert rep.sup_distances[1] == pytest.approx(2 * math.log(2) / 5,
                                                     abs=2e-2)


class TestFiberDiameter:
    def test_semi_flat_unit(self):
        class Unit:
            def V(self, pts):
                return np.ones((np.atleast_2d(pts).shape[0], 1, 1))

        fd = fiber_diameter(Unit(), [0.0, 0.0, 0.0], lam=5.0, limit_value=1.0)
        assert fd.length == pytest.approx(2 * math.pi)
        assert fd.rescaled == pytest.approx(2 * math.pi / 5.0)
        assert fd.ratio == pytest.approx(1.0)

    def test_ov_ratio_in_band(self):
        sol = ooguri_vafa(10.0, 8, a=2.0)
        limit = 2.0 - math.log(2.0 / 10.0) / (2 * math.pi)
        fd = fiber_diameter(sol, [2.0, 0.0, 0.5], lam=10.0, limit_value=limit)
        assert 0.5 <= fd.ratio <= 2.0

    def test_shrinks_toward_discriminant(self):
        sol = ooguri_vafa(1.0, 8, a=2.0)
        lengths = [fiber_diameter(sol, [r, 0.0, 0.0], 1.0,
                                  limit_value=2.0 - math.log(r) / (2 * math.pi)
                                  ).length
                   for r in (2.0, 1.0, 0.5, 0.25)]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
