import math
import re
import sys

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from ghlab.bessel import NonpositiveArgument
from ghlab.fields import SymbolicScalarField
from ghlab.ghcore import (DomainViolation, GHSolution, SphereHitsDiscriminant,
                          chern_flux, table_partial, verify_closed,
                          verify_compat)
from ghlab.lattice import LatticeSimplex, wall_complex
from ghlab.solutions import (
    NotConvex,
    NotPositive,
    OnDiscriminant,
    PeriodicFourierSolution,
    flat_gh_solution,
    flat_solution,
    ooguri_vafa,
    ov_total_flux,
    semiflat,
    taub_nut,
    taub_nut_V,
    taub_nut_laplacian,
)


class TestFlatClosedForms:
    def test_unit_point(self):
        s = flat_solution(1, [1.0, 1.0])
        assert np.allclose(s.u, [0.0])
        assert s.eta == pytest.approx(1.0)
        assert np.allclose(s.V, [[0.5]])
        assert np.allclose(s.W, [[0.5]])

    def test_z_1_2(self):
        s = flat_solution(1, [1.0, 2.0])
        assert np.allclose(s.u, [1.5])
        assert s.eta == pytest.approx(2.0)
        assert np.allclose(s.V, [[0.2]])
        assert np.allclose(s.W, [[0.2]])

    def test_det_identity_n2_random_torus(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            phases = rng.uniform(0, 2 * np.pi, size=3)
            z = np.exp(1j * phases)
            s = flat_solution(2, z)
            assert abs(np.linalg.det(s.V) - np.linalg.det(s.W)) < 1e-12

    def test_discriminant_guard(self):
        with pytest.raises(OnDiscriminant):
            flat_solution(1, [0.0, 1e-12])
        # a single small coordinate is fine
        flat_solution(2, [1e-12, 1.0, 1.0])

    def test_batch_matches_one_point_calls(self):
        rng = np.random.default_rng(21)
        for n in (1, 2):
            z = rng.uniform(0.5, 2.0, size=(30, n + 1)) \
                * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(30, n + 1)))
            batch = flat_solution(n, z)
            assert batch.V.shape == (30, n, n) and batch.W.shape == (30, 1, 1)
            for k in (0, 17, 29):
                one = flat_solution(n, z[k])
                for name in ("u", "eta", "V", "W", "angular_coefficient"):
                    np.testing.assert_array_equal(getattr(batch, name)[k],
                                                  getattr(one, name))

    def test_discriminant_guard_names_the_row(self):
        z = np.ones((4, 3), dtype=complex)
        z[2, 1:] = 1e-12
        with pytest.raises(OnDiscriminant, match="row 2"):
            flat_solution(2, z)

    def test_gh_coordinates_match_potential_blocks(self):
        # V, W from the potential at the mapped point equal the closed forms
        sol = flat_gh_solution()
        for z in ([1.0, 1.0], [1.0, 2.0], [0.8, 1.3]):
            s = flat_solution(1, z)
            pt = [s.u[0], s.eta.real, s.eta.imag]
            assert abs(sol.V([pt])[0, 0, 0] - s.V[0, 0]) < 1e-12
            assert abs(sol.W([pt])[0, 0, 0] - s.W[0, 0]) < 1e-12

    def test_connection_matches_angular_expansion(self):
        # |d eta coefficient| of A must reproduce the angular closed form
        sol = flat_gh_solution()
        for z in ([1.0, 1.0], [1.0, 2.0]):
            s = flat_solution(1, z)
            pt = np.array([[s.u[0], s.eta.real, s.eta.imag]])
            alpha = sol.connection(pt)[0, 0, 0]
            # angular 1-form d(arg eta) = (dη - dηbar)/(2i η) on |eta|=const:
            # c * d(theta_0+theta_1) has d eta coefficient c / (2 i eta)
            expected = s.angular_coefficient[0] / (2j * s.eta)
            assert abs(alpha - expected) < 1e-10

    def test_reality_of_connection(self):
        sol = flat_gh_solution()
        pt = np.array([[0.4, 0.5, -0.7]])
        alpha = sol.connection(pt)[0, 0, 0]
        # d etabar coefficient is the conjugate (A real); recompute it as
        # -i Phi_{u etabar} by sp.diff of the flat potential
        u, x, y = sp.symbols("u x y", real=True)
        r = sp.sqrt(u ** 2 + x ** 2 + y ** 2)
        phi_u = sp.diff((u * sp.log(u + r) - r) / 2, u)
        bar = -sp.I * (sp.diff(phi_u, x) + sp.I * sp.diff(phi_u, y)) / 2
        bar = complex(bar.subs(dict(zip((u, x, y), pt[0]))))
        assert abs(bar - np.conj(alpha)) < 1e-12


class TestTaubNut:
    def test_formula_values(self):
        assert taub_nut_V(2.0, 0.0, [[1.0, 0.0, 0.0]])[0] == pytest.approx(1.0)
        assert taub_nut_V(1.0, 1.0, [[0.0, 1.0, 0.0]])[0] == pytest.approx(1.5)

    def test_solution_blocks_match_formula(self):
        sol = taub_nut(2.0, 0.5)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.3, 0.9, size=(20, 3))
        V = sol.V(pts)[:, 0, 0]
        W = sol.W(pts)[:, 0, 0].real
        expect = taub_nut_V(2.0, 0.5, pts)
        assert np.max(np.abs(V - expect)) < 1e-10
        assert np.max(np.abs(W - expect)) < 1e-10

    def test_laplacian_closed_form(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(1000, 3))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) \
            * rng.uniform(0.5, 2.0, size=(1000, 1))
        res = taub_nut_laplacian(1.7, pts)
        assert np.max(np.abs(res)) < 1e-8

    def test_laplacian_sympy_oracle(self):
        u, x, y = sp.symbols("u x y", real=True)
        V = sp.Rational(17, 10) / (2 * sp.sqrt(u * u + x * x + y * y))
        lap = sp.simplify(sp.diff(V, u, 2) + sp.diff(V, x, 2) + sp.diff(V, y, 2))
        assert lap == 0

    def test_closedness_on_annulus(self):
        sol = taub_nut(1.0, 0.0)
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(40, 3))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) \
            * rng.uniform(0.5, 2.0, size=(40, 1))
        pts = pts[sol.domain(pts)]
        rep = verify_closed(sol, pts, step=1e-4, tolerance=1e-6)
        assert rep.passed, rep

    def test_v_decreases_to_a(self):
        sol = taub_nut(1.0, 0.7)
        rs = np.linspace(0.2, 9.0, 40)
        vals = taub_nut_V(1.0, 0.7, np.stack([rs, np.zeros_like(rs),
                                              np.zeros_like(rs)], axis=-1))
        assert np.all(np.diff(vals) < 0)
        assert abs(vals[-1] - 0.7) < 0.06

    def test_curvature_du_deta_component_at_eta0(self):
        # dV/d eta vanishes along the eta = 0 axis (V radial in |eta|)
        from ghlab.ghcore import curvature_form

        sol = taub_nut(1.0, 0.0)
        F = curvature_form(sol, [[1.0, 0.0, 0.0]])[0]
        assert abs((F[0, 0, 1] - 1j * F[0, 0, 2]) / 2) < 1e-12

    def test_curvature_is_star_dv(self):
        # F = *dV on (u, x, y): F[u,x] = V_y, F[u,y] = -V_x, F[x,y] = V_u,
        # with the closed-form gradient of V = ell/(2r) + a
        from ghlab.ghcore import curvature_form

        ell, a = 2.0, 1.0
        sol = taub_nut(ell, a)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.0, 2.0, size=(600, 3))
        pts = pts[sol.domain(pts)]
        assert len(pts) >= 300
        F = curvature_form(sol, pts)[:, 0]
        r = np.linalg.norm(pts, axis=1)
        grad = -0.5 * ell * pts / r[:, None] ** 3     # (V_u, V_x, V_y)
        star = np.zeros_like(F)
        star[:, 0, 1], star[:, 0, 2], star[:, 1, 2] = \
            grad[:, 2], -grad[:, 1], grad[:, 0]
        star = star - np.swapaxes(star, 1, 2)
        assert np.array_equal(F, -np.swapaxes(F, 1, 2))
        err = np.max(np.abs(F - star), axis=(1, 2)) / np.linalg.norm(grad,
                                                                      axis=1)
        assert np.max(err) <= 1e-12


class TestDomainMasks:
    """Each domain mask against its region written out here, with no ghlab
    code: rmin <= r <= 10 off the wedge u + r < margin max(r, 1) for the
    Taub-NUT family, 0.1 <= hypot(u, x) <= 6 for the periodic one."""

    @staticmethod
    def taub_nut_region(pts, rmin, margin):
        r = np.linalg.norm(pts, axis=1)
        return ((r >= rmin) & (r <= 10.0)
                & (pts[:, 0] + r >= margin * np.maximum(r, 1.0)))

    @staticmethod
    def periodic_region(pts):
        rho = np.hypot(pts[:, 0], pts[:, 1])
        return (rho >= 0.1) & (rho <= 6.0)

    @staticmethod
    def points(radii, norm, k, seed):
        """Random points, and points at which ``norm`` of the first k
        coordinates is exactly each of the given radii."""
        rng = np.random.default_rng(seed)
        pts = [rng.uniform(-12.0, 12.0, size=(2000, 3))]
        for r in radii:
            p = rng.uniform(-1.0, 1.0, size=(2000, 3))
            p[:, :k] *= r / norm(p[:, :k])[:, None]
            exact = p[norm(p[:, :k]) == r]
            assert len(exact) >= 20
            pts.append(exact)
        return np.concatenate(pts)

    @pytest.mark.parametrize("make, rmin, margin", [
        (lambda: taub_nut(2.0, 1.0), 0.05, 0.25),
        (flat_gh_solution, 1e-3, 0.05)], ids=["taub_nut", "flat"])
    def test_taub_nut_family(self, make, rmin, margin):
        sol = make()
        # points on the wedge's edge u + r = margin max(r, 1), on both
        # sides of r = 1, and (-0.375, 0.5, 0), exactly on it at margin 1/4
        r = np.array([0.3, 0.625, 0.9, 1.0, 2.0, 7.5])
        u = margin * np.maximum(r, 1.0) - r
        edge = np.stack([u, np.sqrt(r * r - u * u), np.zeros_like(r)], -1)
        pts = np.concatenate([
            self.points([rmin, 10.0], lambda q: np.linalg.norm(q, axis=1),
                        3, seed=3),
            edge, [[-0.375, 0.5, 0.0]]])
        want = self.taub_nut_region(pts, rmin, margin)
        assert want.any() and not want.all()
        assert np.array_equal(sol.domain(pts), want)

    def test_periodic_family(self):
        sol = ooguri_vafa(1, 8, 4)
        pts = self.points([0.1, 6.0], lambda q: np.hypot(q[:, 0], q[:, 1]),
                          2, seed=4)
        want = self.periodic_region(pts)
        assert want.any() and not want.all()
        assert np.array_equal(sol.domain(pts), want)

    @pytest.mark.parametrize("bad", [[-1.0, 0.0, 0.0], [0.04, 0.0, 0.0]],
                             ids=["branch-wedge", "r=0.04"])
    def test_verify_closed_refuses_a_point_outside(self, bad):
        # on the wedge (u < 0, eta = 0) and inside rmin = 0.05; the first
        # point outside is named
        pts = np.array([[1.0, 0.5, 0.0], bad])
        with pytest.raises(DomainViolation, match=re.escape(str(pts[1]))):
            verify_closed(taub_nut(2.0, 1.0), pts)


class TestFlux:
    def test_flat_flux_equals_wall_weight(self):
        sol = flat_gh_solution()
        wc = wall_complex(LatticeSimplex(np.eye(2, dtype=int).tolist()))
        weight = np.array(wc.walls[0].weight, dtype=float)   # w_0 - w_1
        flux = chern_flux(sol, [0.0], 0.5, nodes=(32, 64))
        assert np.allclose(flux, weight, atol=1e-3), (flux, weight)

    def test_flux_radius_independent(self):
        sol = flat_gh_solution()
        f1 = chern_flux(sol, [0.0], 0.4, nodes=(32, 64))
        f2 = chern_flux(sol, [0.0], 0.8, nodes=(32, 64))
        assert np.max(np.abs(f1 - f2)) < 0.005 * max(1.0, np.max(np.abs(f1)))

    def test_sphere_touching_discriminant_rejected(self):
        from ghlab.ghcore import SphereHitsDiscriminant

        sol = flat_gh_solution()
        with pytest.raises(SphereHitsDiscriminant):
            chern_flux(sol, [0.3], 0.3, nodes=(16, 16))

    def test_no_wall_no_flux(self):
        # quadratic potential has F = 0: flux through any sphere vanishes
        u, x, y = sp.symbols("u x y", real=True)
        sol = GHSolution.from_potential(SymbolicScalarField(
            u ** 2 / 2 - (x ** 2 + y ** 2) / 4, (u, x, y)), 1, 1)
        flux = chern_flux(sol, [0.0], 0.5)
        assert np.max(np.abs(flux)) < 1e-6


class TestSemiflat:
    def test_quadratic_identity(self):
        ys = sp.symbols("s1 s2", real=True)
        sol = semiflat(SymbolicScalarField((ys[0] ** 2 + ys[1] ** 2) / 2, ys))
        pts = np.random.default_rng(4).uniform(-1, 1, size=(50, 2))
        assert np.allclose(sol.V(pts), np.eye(2)[None, :, :])
        rep = verify_compat(sol, pts)
        assert rep.max_residual < 1e-10

    def test_rejects_nonconvex(self):
        s1, s2 = sp.symbols("s1 s2", real=True)
        with pytest.raises(NotConvex):
            semiflat(SymbolicScalarField(s1 ** 2 - s2 ** 2, (s1, s2)))


class TestOoguriVafa:
    def test_zero_mode_at_unit_radius(self):
        sol = ooguri_vafa(1.0, 5, a=2.5)
        assert sol.mode_value(0, 1.0, 0.0) == pytest.approx(2.5)

    def test_mode_value_bessel(self):
        from ghlab.bessel import k0

        sol = ooguri_vafa(1.0, 5, a=2.5)
        got = sol.mode_value(2, 1.5 * math.cos(0.3), 1.5 * math.sin(0.3))
        assert got == pytest.approx(k0(3.0) / (2 * math.pi), rel=1e-12)

    def test_y_average_equals_zero_mode(self):
        sol = ooguri_vafa(1.0, 6, a=2.0)
        ys = 2 * np.pi * np.arange(64) / 64
        pts = np.stack([np.full(64, 0.8), np.full(64, 0.5), ys], axis=-1)
        avg = float(np.mean(sol.value(pts)))
        assert avg == pytest.approx(sol.mode_value(0, 0.8, 0.5), abs=1e-12)

    def test_positivity_guard(self):
        with pytest.raises(NotPositive):
            ooguri_vafa(1.0, 3, a=-1.0)

    @pytest.mark.parametrize("M", [0, 2.5, 1.5, float("nan"), float("inf")])
    def test_mode_cutoff_must_be_a_positive_integer(self, M):
        # 2.5 once ran with M = 2
        with pytest.raises(ValueError, match="integer >= 1"):
            PeriodicFourierSolution(1.0, M, 5.0)
        assert PeriodicFourierSolution(1.0, 3.0, 5.0).M == 3

    @staticmethod
    def image_sum(a, rho, y):
        """The Poisson dual of the unit-coefficient mode sum: the sources
        1/(2r) at y = 2 pi n, with each image's constant subtracted."""
        rho, y = mp.mpf(rho), mp.mpf(y)

        def image(n):
            return 1 / mp.sqrt(rho ** 2 + (y - 2 * mp.pi * n) ** 2)

        pairs = mp.nsum(lambda n: image(n) + image(-n) - 1 / (mp.pi * n),
                        [1, mp.inf])
        return float(a + (image(0) + pairs) / 2
                     + (mp.euler - mp.log(4 * mp.pi)) / (2 * mp.pi))

    @staticmethod
    def mode_tail(M, rho):
        """(1/pi) sum_{m > M} K0(m rho), summed until the terms are gone."""
        total, m = mp.mpf(0), M + 1
        while True:
            term = mp.besselk(0, m * rho)
            total += term
            if term < 1e-20 * total:
                return float(total / mp.pi)
            m += 1

    @pytest.mark.parametrize("M,rhos", [(40, (0.5, 1.0, 2.0)),
                                        (10, (1.0, 2.0))])
    def test_poisson_dual_image_sum(self, M, rhos):
        # V_M differs from the image sum by the cut modes alone,
        # -(1/pi) sum_{m > M} cos(m y) K0(m rho); this fixes the 1/(2 pi)
        # and the K0 of every higher mode, which no flux check sees
        sol = ooguri_vafa(1.0, M, a=5.0)
        for rho in rhos:
            allowed = self.mode_tail(M, rho) + 1e-13
            for y, phi in ((0.0, 0.7), (1.1, 2.0), (math.pi, -1.2)):
                pt = [[rho * math.cos(phi), rho * math.sin(phi), y]]
                gap = sol.value(pt)[0] - self.image_sum(5.0, rho, y)
                assert abs(gap) <= allowed, (M, rho, y, gap, allowed)

    def test_helmholtz_residual_extended_precision(self):
        # the double-precision stencil across the domain (0.1, 6), through
        # all three K0 branches and the switches between them
        sol = ooguri_vafa(1.0, 10, a=4.0)
        for m in (1, 2, 5, 10):
            for rho in (0.1, 0.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0):
                assert abs(sol.helmholtz_residual(m, rho)) < 1e-8, (m, rho)

    def test_compat_and_flux_take_the_family_directly(self):
        # V = W makes the compatibility residual exactly 0; a sphere that
        # keeps away from the source line rho = 0 encloses no flux
        sol = ooguri_vafa(1.0, 8, a=4.0)
        pts = np.array([[1.0, 0.5, 0.3], [-0.6, 1.2, 2.0], [0.2, -1.5, 5.0]])
        assert verify_compat(sol, pts).max_residual == 0.0
        flux = chern_flux(sol, [2.0], 0.5, nodes=(16, 32))
        assert flux.shape == (1,) and abs(flux[0]) < 1e-6

    def test_compat_reads_the_shared_table_once(self, monkeypatch):
        # W is V's own table, so det W comes from the same evaluation and
        # the report says that the check is structural
        sol = ooguri_vafa(1.0, 40, a=5.0)
        calls = []
        value = sol.value

        def counted(pts):
            calls.append(len(pts))
            return value(pts)

        monkeypatch.setattr(sol, "value", counted)
        pts = np.array([[1.0, 0.5, 0.3], [-0.6, 1.2, 2.0], [0.2, -1.5, 5.0]])
        rep = verify_compat(sol, pts)
        assert calls == [3]
        assert rep.extra["structural"] is True and rep.max_residual == 0.0

    def test_compat_of_a_scaled_copy_of_the_table_fails(self):
        # two distinct tables are both read, so W = 1.01 V is seen
        sol = ooguri_vafa(1.0, 8, a=4.0)
        bad = GHSolution(1, 1, table_partial(sol.V),
                         table_partial(lambda pts: 1.01 * sol.V(pts)))
        pts = np.array([[1.0, 0.5, 0.3], [-0.6, 1.2, 2.0]])
        rep = verify_compat(bad, pts)
        assert not rep.passed and rep.extra["structural"] is False
        assert rep.max_residual == pytest.approx(0.01, abs=1e-12)

    def test_closedness_of_truncated_field(self):
        sol = ooguri_vafa(1.0, 12, a=4.0)
        rng = np.random.default_rng(14)
        ang = rng.uniform(0, 2 * np.pi, size=12)
        rad = rng.uniform(0.4, 2.0, size=12)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang),
                        rng.uniform(0, 2 * np.pi, size=12)], axis=-1)
        rep = verify_closed(sol, pts, step=1e-3, tolerance=1e-6)
        assert rep.extra["dF"] < 1e-6, rep

    def test_total_flux_torus_surface(self):
        sol = ooguri_vafa(1.0, 40, a=5.0)
        for radius in (0.3, 0.5):
            flux = ov_total_flux(sol, radius)
            assert abs(flux + 2 * np.pi) < 0.01 * 2 * np.pi, (radius, flux)

    def test_flux_radius_independence(self):
        sol = ooguri_vafa(1.0, 40, a=5.0)
        f1 = ov_total_flux(sol, 0.25)
        f2 = ov_total_flux(sol, 0.5)
        assert abs(f1 - f2) < 0.005 * 2 * np.pi

    def test_non_enclosing_flux_zero(self):
        sol = ooguri_vafa(1.0, 20, a=5.0)
        flux = ov_total_flux(sol, 0.3, center=(2.0, 2.0))
        assert abs(flux) < 1e-4

    @pytest.mark.parametrize("radius", [
        float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_flux_refuses_a_radius_that_is_not_finite_and_positive(self,
                                                                   radius):
        sol = ooguri_vafa(1.0, 8, a=5.0)
        with pytest.raises(ValueError, match="finite and positive"):
            ov_total_flux(sol, radius)

    def test_flux_refuses_a_surface_through_the_source(self):
        # the circle of radius 0.5 about (0.5, 0) passes through the
        # source, and its flux read -3.13, half the enclosed -2 pi
        sol = ooguri_vafa(1.0, 8, a=5.0)
        with pytest.raises(SphereHitsDiscriminant):
            ov_total_flux(sol, 0.5, center=(0.5, 0.0))
        with pytest.raises(SphereHitsDiscriminant):
            ov_total_flux(sol, 0.5, center=(0.52, 0.0))
        flux = ov_total_flux(sol, 0.5, center=(0.45, 0.0))
        assert abs(flux + 2 * np.pi) < 0.01 * 2 * np.pi, flux

    def test_flux_refuses_a_zero_mode_function(self):
        # the flux reads V on a grid of (rho, y), and a function of (u, x)
        # need not be one of rho
        sol = PeriodicFourierSolution(
            1.0, 8, 5.0, zero_mode=lambda u, x: 5.0 - np.log(np.hypot(u, x))
            / (2.0 * np.pi))
        with pytest.raises(ValueError, match="zero_mode"):
            ov_total_flux(sol, 0.5)

    def test_fiber_value_has_the_bits_of_value_on_the_product(self):
        # 300 base points on 12 radii times 17 fiber coordinates: one value
        # batch at (rho, 0, y) on the distinct radii has the bits of V at
        # every point (u, x, y) of the product
        rng = np.random.default_rng(21)
        sol = ooguri_vafa(1.0, 40, a=5.0)
        rho = rng.uniform(0.2, 5.0, 12)[rng.integers(0, 12, 300)]
        ang = rng.uniform(0.0, 2.0 * np.pi, 300)
        u, x = rho * np.cos(ang), rho * np.sin(ang)
        ys = rng.uniform(0.0, 2.0 * np.pi, 17)
        pts = np.stack(np.broadcast_arrays(u[:, None], x[:, None], ys), -1)
        want = sol.value(pts.reshape(-1, 3)).reshape(300, 17)
        assert np.array_equal(sol.fiber_value(u, x, ys), want)

    @pytest.mark.parametrize("center, most", [((0.0, 0.0), 256),
                                              ((2.0, -1.5), 16384)])
    def test_flux_layers_are_grids_of_distinct_radii(self, monkeypatch,
                                                     center, most):
        # each offset layer is one value batch of its distinct radii x 64
        # fiber nodes: a few radii about the source, 256 off centre
        sol = ooguri_vafa(1.0, 40, a=5.0)
        value, rows = sol.value, []

        def recorded(pts):
            rho = np.unique(sol._radii(pts[:, 0], pts[:, 1]))
            rows.append((len(pts), 64 * len(rho)))
            return value(pts)

        monkeypatch.setattr(sol, "value", recorded)
        ov_total_flux(sol, 0.3, center)
        assert len(rows) == 2 and all(n == grid for n, grid in rows), rows
        assert max(n for n, _ in rows) <= most, rows

    @pytest.mark.parametrize("radius, center", [
        (0.3, (0.0, 0.0)), (0.8718, (0.0, 0.0)), (1.93, (0.0, 0.0)),
        (0.3, (2.0, -1.5))])
    def test_flux_has_the_bits_of_one_stacked_batch(self, radius, center):
        # the two offset layers as one 2 x 16,384-row batch of the base
        # points plus and minus 1e-6 times the normals: evaluating them
        # as two batches keeps every bit of the flux
        sol = ooguri_vafa(1.0, 40, a=5.0)
        A, Y = np.meshgrid(2.0 * np.pi * np.arange(256) / 256,
                           2.0 * np.pi * np.arange(64) / 64, indexing="ij")
        nrm = np.stack([np.cos(A).ravel(), np.sin(A).ravel(),
                        np.zeros(A.size)], axis=-1)
        base = np.stack([center[0] + radius * np.cos(A).ravel(),
                         center[1] + radius * np.sin(A).ravel(),
                         Y.ravel()], axis=-1)
        vplus, vminus = np.split(sol.value(np.concatenate(
            [base + 1e-6 * nrm, base - 1e-6 * nrm])), 2)
        area = radius * (2.0 * np.pi / 256) * (2.0 * np.pi / 64)
        want = float(np.sum((vplus - vminus) / 2e-6 * area))
        assert ov_total_flux(sol, radius, center) == want

    @staticmethod
    def per_point_value(sol, pts):
        """The mode sum with K0 and e^{i m y} at every point."""
        from ghlab.bessel import k0

        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
        rho = sol._radii(u, x)
        out = sol.zero_mode(u, x).astype(float).copy()
        for m in range(1, sol.M + 1):
            out += 2.0 * np.real(np.exp(1j * m * y)) * k0(m * rho) \
                / (2.0 * np.pi)
        return out

    def test_value_on_torus_grid_equals_per_point_sum(self):
        sol = ooguri_vafa(1.0, 40, a=5.0)
        alpha = 2.0 * np.pi * np.arange(32) / 32
        A, Y = np.meshgrid(alpha, 2.0 * np.pi * np.arange(16) / 16,
                           indexing="ij")
        for radius in (0.3, 1.7, 6.5):
            pts = np.stack([radius * np.cos(A).ravel(),
                            radius * np.sin(A).ravel(), Y.ravel()], -1)
            assert np.array_equal(sol.value(pts),
                                  self.per_point_value(sol, pts))

    @pytest.mark.parametrize("M", [8, 40, 400])
    @pytest.mark.parametrize("zero_mode", [
        None, lambda u, x: 3.0 - np.log(np.hypot(u, x) / 2.0) / (2.0 * np.pi)])
    def test_value_equals_the_per_point_sum_at_every_M(self, M, zero_mode):
        # 9,000 distinct points are blocks of 4,096, 4,096 and 808 sums in
        # radius order, in chunks of 4 and of 16,384 // 808 = 20 modes, at
        # every M
        rng = np.random.default_rng(M)
        sol = PeriodicFourierSolution(1.0, M, 4.0, zero_mode=zero_mode,
                                      check_positive=False)
        rho = rng.uniform(0.05, 6.0, 9000)
        ang = rng.uniform(0.0, 2.0 * np.pi, 9000)
        pts = np.stack([rho * np.cos(ang), rho * np.sin(ang),
                        rng.uniform(0.0, 2.0 * np.pi, 9000)], -1)
        assert np.array_equal(sol.value(pts), self.per_point_value(sol, pts))

    def test_value_with_repeats_across_the_k0_branches(self):
        # radii across all three K0 branches, each (rho, y) drawn from a
        # small pool so both repeat
        rng = np.random.default_rng(21)
        sol = PeriodicFourierSolution(1.0, 12, 3.0, check_positive=False)
        rhos = rng.uniform(0.05, 4.0, 40)
        ang = rng.uniform(0.0, 2.0 * np.pi, 40)
        ys = rng.uniform(0.0, 2.0 * np.pi, 25)
        i, k = rng.integers(0, 40, 3000), rng.integers(0, 25, 3000)
        pts = np.stack([rhos[i] * np.cos(ang[i]), rhos[i] * np.sin(ang[i]),
                        ys[k]], -1)
        assert np.array_equal(sol.value(pts), self.per_point_value(sol, pts))

    @pytest.mark.parametrize("lam", [1.0, 5.0, 10.0, 25.0])
    def test_built_in_zero_mode_is_the_rescaled_closure_bit_for_bit(self,
                                                                    lam):
        # the family of ghlab collapse, whose built-in zero mode
        # a - log(rho/lam)/(2 pi) reads lam, against the same family with
        # that zero mode passed as a function of (u, x), which takes the
        # per-point path of value: on the command's grid x 128 fiber nodes,
        # its fiber-diameter point and 5,000 random points
        a = 4.0
        closure = PeriodicFourierSolution(
            lam, 5, a, check_positive=False,
            zero_mode=lambda u, x: a - np.log(np.hypot(u, x) / lam)
            / (2.0 * np.pi))
        built_in = PeriodicFourierSolution(lam, 5, a, check_positive=False)
        ys = 2.0 * np.pi * np.arange(128) / 128
        grid = [[lam * q[0], lam * q[1], y]
                for q in [(0.5, 0.0), (1.0, 0.5), (1.5, -0.5)] for y in ys]
        rng = np.random.default_rng(int(lam))
        rho = lam * rng.uniform(0.05, 3.0, 5000)
        ang = rng.uniform(0.0, 2.0 * np.pi, 5000)
        pts = np.concatenate([grid, [[1.2 * lam, 0.0, 0.3]], np.stack(
            [rho * np.cos(ang), rho * np.sin(ang),
             rng.uniform(0.0, 2.0 * np.pi, 5000)], -1)])
        assert np.array_equal(built_in.value(pts).view(np.int64),
                              closure.value(pts).view(np.int64))
        assert np.array_equal(
            built_in.mode_value(0, pts[:, 0], pts[:, 1]).view(np.int64),
            closure.mode_value(0, pts[:, 0], pts[:, 1]).view(np.int64))

    @pytest.mark.parametrize("zero_mode", [
        None, lambda u, x: 3.0 - np.log(np.hypot(u, x) / 2.0) / (2.0 * np.pi)])
    def test_value_does_not_depend_on_the_batch(self, zero_mode):
        # 9,000 points with each (rho, y) drawn from a small pool, so both
        # repeat within a block; with the closure each point is its own
        # sum, in blocks of 4,096, 4,096 and 808 points in radius order.
        # Every value has the bits of its one-point call, at both sides of
        # each block edge too
        rng = np.random.default_rng(33)
        sol = PeriodicFourierSolution(1.0, 8, 4.0, zero_mode=zero_mode,
                                      check_positive=False)
        rhos = rng.uniform(0.05, 6.0, 60)
        ang = rng.uniform(0.0, 2.0 * np.pi, 60)
        ys = rng.uniform(0.0, 2.0 * np.pi, 45)
        i, k = rng.integers(0, 60, 9000), rng.integers(0, 45, 9000)
        pts = np.stack([rhos[i] * np.cos(ang[i]), rhos[i] * np.sin(ang[i]),
                        ys[k]], -1)
        got = sol.value(pts)
        edges = np.argsort(sol._radii(pts[:, 0], pts[:, 1]), kind="stable")[
            [0, 4095, 4096, 8191, 8192, 8999]]
        for j in np.union1d(rng.choice(9000, 300, replace=False), edges):
            assert got[j] == sol.value(pts[j:j + 1])[0], j

    @pytest.mark.parametrize("a", [1.0, 2.0, 4.0, 8.0])
    def test_stop_rule_at_a_power_of_two(self, a):
        # at rho = 1 the zero mode is a itself, and V crosses it: the sum
        # sits on a power of two, where the gap below is half the gap
        # above, while the tail terms K0(m) / pi are near its spacing.
        # 30,000 distinct (rho, y) pairs make seven blocks of 4,096 sums in
        # chunks of 4 modes and one of 1,328 in chunks of 12, all of which
        # end at mode 36.  After it the bound 4 K0(36) / (2 pi) = 3.1e-17
        # lies between a quarter of the spacing below 1 (2.8e-17) and
        # above it (5.6e-17): at a = 1 the sums above 1 stop there, and
        # most of those below run on to mode 40
        rng = np.random.default_rng(int(a))
        sol = PeriodicFourierSolution(1.0, 60, a, check_positive=False)
        rho = 1.0 + rng.uniform(-1e-3, 1e-3, 30000)
        ang = rng.uniform(0.0, 2.0 * np.pi, 30000)
        rho[:3000], ang[:3000] = 1.0, 0.0
        pts = np.stack([rho * np.cos(ang), rho * np.sin(ang),
                        rng.uniform(0.0, 2.0 * np.pi, 30000)], -1)
        assert np.array_equal(sol.value(pts), self.per_point_value(sol, pts))

    def test_stop_rule_on_the_library_batch(self, monkeypatch):
        # 20,000 distinct points with rho in (0.2, 5) at M = 40: a sum stops
        # after about m rho = 33, so k0 takes about half of the M N
        # arguments of the full table.  Blocks of 4,096 in radius order take
        # chunks of 4 modes, which run past the stop modes at most 5 % more
        # than chunks of 2 (380,170 arguments).  A block's sums stop
        # together, in 30 k0 calls; blocks in point order would all run to
        # their smallest radius's stop mode, in 52
        import ghlab.solutions as solmod
        from ghlab.bessel import k0

        seen = []

        def counting_k0(x):
            seen.append(np.size(x))
            return k0(x)

        rng = np.random.default_rng(5)
        sol = ooguri_vafa(1.0, 40, a=5.5)
        rho = rng.uniform(0.2, 5.0, 20000)
        ang = rng.uniform(0.0, 2.0 * np.pi, 20000)
        pts = np.stack([rho * np.cos(ang), rho * np.sin(ang),
                        rng.uniform(0.0, 2.0 * np.pi, 20000)], -1)
        monkeypatch.setattr(solmod, "k0", counting_k0)
        got = sol.value(pts)
        assert sum(seen) < 0.6 * 40 * 20000, sum(seen)
        assert sum(seen) <= 1.05 * 380170, sum(seen)
        assert len(seen) <= 36, len(seen)
        monkeypatch.undo()
        assert np.array_equal(got, self.per_point_value(sol, pts))

    def test_value_peak_memory_on_the_library_batch(self):
        # distinct points drawn as in the benchmark, 20,000 and 200,000 of
        # them, at M = 40 and 400: blocks of at most 4,096 points in radius
        # order and (mode, sum) tables of at most 16,384 entries, each freed
        # before the next k0 call, whatever M; beyond them only the radius
        # order and the result grow with N.  Measured with numpy 2.4: 2.0
        # and 5.0 MiB at both M
        import tracemalloc

        for n, mib in ((20000, 2.1), (200000, 5.5)):
            rng = np.random.default_rng(5)
            rho = rng.uniform(0.2, 5.0, n)
            ang = rng.uniform(0.0, 2.0 * np.pi, n)
            pts = np.stack([rho * np.cos(ang), rho * np.sin(ang),
                            rng.uniform(0.0, 2.0 * np.pi, n)], -1)
            for M in (40, 400):
                sol = ooguri_vafa(1.0, M, a=5.5)
                sol.value(pts[:64])
                tracemalloc.start()
                try:
                    sol.value(pts)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= mib * 2 ** 20, (n, M, peak / 2 ** 20)

    def test_value_of_empty_and_invalid_batches(self):
        sol = ooguri_vafa(1.0, 40, a=5.0)
        assert sol.value(np.empty((0, 3))).shape == (0,)
        with pytest.raises(NonpositiveArgument):
            sol.value([[0.5, 0.2, 1.0], [np.nan, 0.3, 2.0]])

    @pytest.mark.parametrize("zero_mode", [
        None, lambda u, x: 3.0 - np.log(np.hypot(u, x) / 2.0) / (2.0 * np.pi)])
    def test_value_tables_stay_within_the_budget(self, monkeypatch,
                                                 zero_mode):
        # with a budget of 64, 3,000 distinct points make 188 blocks of at
        # most 16 sums, in chunks of 4 modes; at M = 8 and at M = 40 no k0
        # table passes 64 arguments, and every value keeps its bits
        import ghlab.solutions as solmod
        from ghlab.bessel import k0

        seen = []

        def counting_k0(x):
            seen.append(np.size(x))
            return k0(x)

        rng = np.random.default_rng(8)
        rho = rng.uniform(0.05, 6.0, 3000)
        ang = rng.uniform(0.0, 2.0 * np.pi, 3000)
        pts = np.stack([rho * np.cos(ang), rho * np.sin(ang),
                        rng.uniform(0.0, 2.0 * np.pi, 3000)], -1)
        for M in (8, 40):
            sol = PeriodicFourierSolution(1.0, M, 4.0, zero_mode=zero_mode,
                                          check_positive=False)
            seen.clear()
            monkeypatch.setattr(solmod, "JET_BLOCK_TERMS", 64)
            monkeypatch.setattr(solmod, "k0", counting_k0)
            got = sol.value(pts)
            assert len(seen) >= 188 and max(seen) <= 64, (M, seen)
            monkeypatch.undo()
            assert np.array_equal(got, self.per_point_value(sol, pts)), M

    def test_double_precision_path_loads_no_mpmath(self, monkeypatch):
        # the library twin of the CI step that runs the K0 commands without
        # mpmath installed: an import of mpmath now raises ImportError, and
        # no method of the periodic family makes one
        monkeypatch.setitem(sys.modules, "mpmath", None)
        sol = ooguri_vafa(1.0, 40, a=5.0)
        pts = [[0.3, 0.4, 1.0], [1.5, -0.2, 4.0]]
        assert np.all(np.isfinite(sol.value(pts)))
        assert np.isfinite(sol.mode_value(3, 0.3, 0.4))
        assert abs(ov_total_flux(sol, 0.5) + 2 * np.pi) < 0.01 * 2 * np.pi
        res = sol.helmholtz_residual(1, 0.5)
        assert isinstance(res, float) and math.isfinite(res)
        assert abs(res) < 1e-8

    def test_flux_evaluates_k0_once_per_distinct_radius(self, monkeypatch):
        # the two torus layers are two value batches, each with a few
        # distinct radii shared by all 64 fiber points above each angle:
        # at most one K0 argument per mode and distinct radius of each
        # batch
        import ghlab.solutions as solmod
        from ghlab.bessel import k0

        seen, batches = [], []

        def counting_k0(x):
            seen.append(np.size(x))
            return k0(x)

        sol = ooguri_vafa(1.0, 40, a=5.0)
        value = sol.value

        def recorded(pts):
            batches.append(np.asarray(pts))
            return value(pts)

        monkeypatch.setattr(solmod, "k0", counting_k0)
        monkeypatch.setattr(sol, "value", recorded)
        flux = ov_total_flux(sol, 0.5)
        assert abs(flux + 2 * np.pi) < 0.01 * 2 * np.pi
        assert len(batches) == 2
        radii = sum(len(np.unique(sol._radii(pts[:, 0], pts[:, 1])))
                    for pts in batches)
        assert sum(seen) <= 40 * radii, (sum(seen), radii)
