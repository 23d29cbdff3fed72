import math

import numpy as np
import pytest
import sympy as sp

from ghlab.ghcore import chern_flux, verify_closed, verify_compat, completeness_probe
from ghlab.lattice import LatticeSimplex, wall_complex
from ghlab.solutions import (
    NotConvex,
    NotPositive,
    OnDiscriminant,
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
        # d etabar coefficient is the conjugate (A real); recompute directly
        phi = sol.potential
        bar = -1j * phi.wirtinger((1,), (0,), (1,), pt)[0]
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
        pts = pts[sol.domain.contains(pts)]
        rep = verify_closed(sol, pts, step=1e-4, tolerance=1e-6)
        assert rep.passed, rep.to_json()

    def test_v_decreases_to_a(self):
        sol = taub_nut(1.0, 0.7)
        rs = np.linspace(0.2, 9.0, 40)
        vals = taub_nut_V(1.0, 0.7, np.stack([rs, np.zeros_like(rs),
                                              np.zeros_like(rs)], axis=-1))
        assert np.all(np.diff(vals) < 0)
        assert abs(vals[-1] - 0.7) < 0.06

    def test_curvature_du_deta_component_at_eta0(self):
        # dV/d eta vanishes along the eta = 0 axis (V radial in |eta|)
        from ghlab.ghcore import curvature

        sol = taub_nut(1.0, 0.0)
        F = curvature(sol, [1.0, 0.0, 0.0])
        assert abs((F[0, 0, 1] - 1j * F[0, 0, 2]) / 2) < 1e-12

    def test_curvature_is_star_dv(self):
        # F = *dV on (u, x, y): F[u,x] = V_y, F[u,y] = -V_x, F[x,y] = V_u,
        # with the closed-form gradient of V = ell/(2r) + a
        from ghlab.ghcore import curvature_form

        ell, a = 2.0, 1.0
        sol = taub_nut(ell, a)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.0, 2.0, size=(600, 3))
        pts = pts[sol.domain.contains(pts)]
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
        import sympy as sp
        from ghlab.ghcore import PotentialField, GHSolution

        u, x, y = sp.symbols("u x y", real=True)
        phi = PotentialField.from_sympy(u ** 2 / 2 - (x ** 2 + y ** 2) / 4,
                                        (u, x, y), 1, 1)
        flux = chern_flux(GHSolution.from_potential(phi), [0.0], 0.5)
        assert np.max(np.abs(flux)) < 1e-6


class TestSemiflat:
    def test_quadratic_identity(self):
        ys = sp.symbols("s1 s2", real=True)
        sol = semiflat((ys[0] ** 2 + ys[1] ** 2) / 2, ys)
        pts = np.random.default_rng(4).uniform(-1, 1, size=(50, 2))
        assert np.allclose(sol.V(pts), np.eye(2)[None, :, :])
        rep = verify_compat(sol, pts)
        assert rep.max_residual < 1e-10

    def test_rejects_nonconvex(self):
        s1, s2 = sp.symbols("s1 s2", real=True)
        with pytest.raises(NotConvex):
            semiflat(s1 ** 2 - s2 ** 2, (s1, s2))


class TestOoguriVafa:
    def test_zero_mode_at_unit_radius(self):
        sol = ooguri_vafa(1.0, 5, a=2.5)
        assert sol.mode_value(0, 1.0, 0.0) == pytest.approx(2.5)

    def test_mode_value_bessel(self):
        from ghlab.bessel import k0

        sol = ooguri_vafa(1.0, 5, a=2.5)
        got = sol.mode_value(2, 1.5 * math.cos(0.3), 1.5 * math.sin(0.3))
        assert got == pytest.approx(k0(3.0) / (2 * math.pi), rel=1e-12)

    def test_reality_pairing(self):
        sol = ooguri_vafa(1.0, 4, a=2.0)
        vp = sol.mode_value(3, 0.7, 0.4)
        vm = sol.mode_value(-3, 0.7, 0.4)
        assert vm == pytest.approx(np.conj(vp))

    def test_y_average_equals_zero_mode(self):
        sol = ooguri_vafa(1.0, 6, a=2.0)
        ys = 2 * np.pi * np.arange(64) / 64
        pts = np.stack([np.full(64, 0.8), np.full(64, 0.5), ys], axis=-1)
        avg = float(np.mean(sol.value(pts)))
        assert avg == pytest.approx(sol.mode_value(0, 0.8, 0.5), abs=1e-12)

    def test_positivity_guard(self):
        with pytest.raises(NotPositive):
            ooguri_vafa(1.0, 3, a=-1.0)

    def test_helmholtz_residual_extended_precision(self):
        sol = ooguri_vafa(1.0, 10, a=4.0)
        for m in (1, 2, 5, 10):
            for rho in (0.1, 0.5, 2.0):
                assert abs(sol.helmholtz_residual(m, rho)) < 1e-8

    def test_closedness_of_truncated_field(self):
        sol = ooguri_vafa(1.0, 12, a=4.0).as_gh_solution()
        rng = np.random.default_rng(14)
        ang = rng.uniform(0, 2 * np.pi, size=12)
        rad = rng.uniform(0.4, 2.0, size=12)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang),
                        rng.uniform(0, 2 * np.pi, size=12)], axis=-1)
        rep = verify_closed(sol, pts, step=1e-3, tolerance=1e-6)
        assert rep.extra["dF"] < 1e-6, rep.to_json()

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

    def test_sphere_surface_shows_truncation_oscillation(self):
        # exact surface integral of the truncated field:
        # -2R - 4 sum_{m<=M} sin(mR)/m; at M=40, R=0.3 it misses -2pi by ~4.6%
        sol = ooguri_vafa(1.0, 40, a=5.0)
        flux = ov_total_flux(sol, 0.3, nodes=(96, 96), surface="sphere")
        expected = -2 * 0.3 - 4 * sum(math.sin(m * 0.3) / m
                                      for m in range(1, 41))
        assert abs(flux - expected) < 0.01
        assert abs(flux + 2 * np.pi) > 0.02 * 2 * np.pi

    def test_non_enclosing_flux_zero(self):
        sol = ooguri_vafa(1.0, 20, a=5.0)
        flux = ov_total_flux(sol, 0.3, center=(2.0, 2.0))
        assert abs(flux) < 1e-4

    def test_solution_from_config(self):
        from ghlab.solutions import solution_from_config

        sol = solution_from_config({"family": "taub-nut", "ell": 2.0,
                                    "a": 0.5, "domain": {"rmax": 5.0}})
        assert sol.ell == 2.0
        ov = solution_from_config({"family": "ooguri-vafa", "M": 6, "a": 3.0})
        assert ov.M == 6
        with pytest.raises(ValueError):
            solution_from_config({"family": "taub-nut", "bogus": 1})
        with pytest.raises(ValueError):
            solution_from_config({"family": "unknown"})

    def test_completeness_probe_flat(self):
        # flat C^2: (V^{-1}) = 2r grows linearly, integral grows like log
        sol = flat_gh_solution(rmax=300.0)
        probe = completeness_probe(sol, 0, 0, [10.0, 40.0, 160.0],
                                   base=[0.5, 0.2, 0.0], samples=6000)
        assert probe.increasing
        assert probe.verdict == "diverging"
