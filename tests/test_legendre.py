import math

import numpy as np
import pytest
import sympy as sp

from ghlab.lattice import LatticeSimplex, validate_dual_pair
from ghlab.legendre import (
    LoopHitsSingularity,
    NotHarmonic,
    NotPositive,
    SplitMASolution,
    atlas,
    beta_holonomy,
    block_determinant_residual,
    circle_loop,
    dual_transform,
    inverse_minor_residual,
    is_unipotent,
    monodromy_generator,
    partial_legendre,
    singular_2d,
    verify_classical_ma,
)

S, T = sp.symbols("s t", real=True)
PAIR = validate_dual_pair(LatticeSimplex([(0, 0, 1), (1, 0, 1)]),
                          LatticeSimplex([(0, 0, 1), (0, 1, 1)]))


def harmonic_exp_solution():
    return SplitMASolution.from_potential(sp.exp(S) * sp.cos(T), 1, 1,
                                          symbols=(S, T))


def cross_term_solution(b):
    K = S ** 2 / 2 + b * S * T - T ** 2 / 2
    return SplitMASolution.from_potential(K, 1, 1, symbols=(S, T))


class TestPartialLegendre:
    def test_identity_potential(self):
        sol = SplitMASolution.from_potential(S ** 2 / 2 - T ** 2 / 2, 1, 1,
                                             symbols=(S, T))
        y, H = partial_legendre(sol, [0.7, -0.3])
        assert np.allclose(y, [0.7, -0.3])
        assert np.allclose(H, np.eye(2), atol=1e-12)

    def test_cross_term_block_formula(self):
        b = 0.6
        sol = cross_term_solution(b)
        y, H = partial_legendre(sol, [0.5, 0.4])
        assert np.allclose(H, [[1.0, -b], [-b, 1.0 + b * b]], atol=1e-12)
        assert np.linalg.det(H) == pytest.approx(1.0, abs=1e-12)

    def test_harmonic_family_fd_oracle(self):
        # independent oracle: invert the coordinate map numerically and take
        # finite differences of the gradient of the transformed potential
        sol = harmonic_exp_solution()
        s0, t0 = 0.3, 0.4
        y0, H = partial_legendre(sol, [s0, t0])

        def s_of_y(y1, y2, s_init=0.3):
            s = s_init
            for _ in range(60):
                f = math.exp(s) * math.cos(y2) - y1
                fp = math.exp(s) * math.cos(y2)
                step = f / fp
                s -= step
                if abs(step) < 1e-14:
                    break
            return s

        def grad_psi(y1, y2):
            s = s_of_y(y1, y2)
            # d Psi = s dy_1 - K_t dt
            return np.array([s, math.exp(s) * math.sin(y2)])

        h = 1e-5
        Hfd = np.zeros((2, 2))
        for k, e in enumerate(np.eye(2)):
            gp = grad_psi(*(y0 + h * e))
            gm = grad_psi(*(y0 - h * e))
            Hfd[:, k] = (gp - gm) / (2 * h)
        assert np.max(np.abs(H - 0.5 * (Hfd + Hfd.T))) < 1e-6
        assert abs(np.linalg.det(Hfd) - 1.0) < 1e-6

    def test_coordinate_jacobian_structure(self):
        # FD Jacobian of (s,t) -> y equals [[V, B], [0, I]]
        sol = harmonic_exp_solution()
        pt = np.array([0.25, -0.6])
        h = 1e-6

        def ymap(q):
            return np.concatenate([sol.gradient_s([q])[0], q[1:]])

        J = np.zeros((2, 2))
        for k, e in enumerate(np.eye(2)):
            J[:, k] = (ymap(pt + h * e) - ymap(pt - h * e)) / (2 * h)
        V = sol.V([pt])[0]
        B = sol.B([pt])[0]
        want = np.block([[V, B], [np.zeros((1, 1)), np.eye(1)]])
        assert np.max(np.abs(J - want)) < 1e-8

    def test_verify_classical_ma_harmonic(self):
        sol = harmonic_exp_solution()
        g1, g2 = np.meshgrid(np.linspace(-0.5, 0.5, 5),
                             np.linspace(-1.0, 1.0, 5))
        rep = verify_classical_ma(sol, np.stack([g1.ravel(), g2.ravel()], -1))
        assert rep.max_residual < 1e-8

    def test_negative_control_det_mismatch(self):
        # scale W only: det Hess Psi = det W / det V departs by the factor
        sol = cross_term_solution(0.3)
        eps = 2.5e-3
        bad = SplitMASolution(1, 1, sol.V,
                              lambda pts: (1 + eps) * sol.W(pts),
                              B=sol.B, potential=sol.potential)
        _, H = partial_legendre(bad, [0.2, 0.1])
        assert abs(np.linalg.det(H) - 1.0) == pytest.approx(eps, rel=1e-6)


class TestBlockIdentities:
    def test_random_blocks(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(200):
            n, l = rng.integers(1, 4, size=2)
            A = rng.uniform(-1, 1, size=(n, n)) + 2.0 * np.eye(n)
            D = rng.uniform(-1, 1, size=(l, l)) + 2.0 * np.eye(l)
            Bm = rng.uniform(-1, 1, size=(n, l))
            C = rng.uniform(-1, 1, size=(l, n))
            worst = max(worst, block_determinant_residual(A, Bm, C, D))
        assert worst < 1e-12

    def test_inverse_minor_jacobi(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            M = rng.uniform(-1, 1, size=(k, k)) + 2.0 * np.eye(k)
            r = int(rng.integers(1, k))
            rows = sorted(rng.choice(k, size=r, replace=False).tolist())
            cols = sorted(rng.choice(k, size=r, replace=False).tolist())
            assert inverse_minor_residual(M, rows, cols) < 1e-10

    def test_jacobi_2x2_hand_case(self):
        M = np.array([[3.0, 1.0], [2.0, 4.0]])
        # (M^{-1})_{00} * det M = M_{11}
        assert inverse_minor_residual(M, [0], [0]) < 1e-15


class TestTableOnlyFallback:
    """Blocks given as tables only: partials come from finite differences."""

    @pytest.mark.parametrize("order, tol", [(1, 1e-9), (2, 1e-7), (3, 1e-7)])
    def test_fd_partials_match_potential(self, order, tol):
        sol = harmonic_exp_solution()
        table_only = SplitMASolution(1, 1, sol.V, sol.W, B=sol.B)
        pts = np.random.default_rng(11).uniform(-0.5, 0.5, size=(16, 2))
        worst = 0.0
        for orders in ((k, order - k) for k in range(order + 1)):
            for fd, exact in ((table_only.V_partial, sol.V_partial),
                              (table_only.W_partial, sol.W_partial)):
                worst = max(worst, float(np.max(np.abs(
                    fd(orders, pts) - exact(orders, pts)))))
        assert worst < tol

    def test_holonomy_of_table_only_singular_family(self):
        sol = singular_2d(h=1.0)
        table_only = SplitMASolution(
            1, 1, sol.V, sol.W, singular_points=sol.singular_points,
            charges=sol.charges)
        rep = beta_holonomy(table_only, circle_loop(radius=1.0, segments=64))
        assert rep.windings == [1]
        assert abs(rep.holonomy[0, 0] + 1.0) < 1e-6


class TestDual:
    def test_self_dual_quadratic(self):
        sol = SplitMASolution.from_potential(S ** 2 / 2 - T ** 2 / 2, 1, 1,
                                             symbols=(S, T))
        dual = dual_transform(sol)
        pts = np.array([[0.3, -0.8], [1.0, 0.2]])
        assert np.allclose(dual.V(pts), sol.V(pts))
        assert np.allclose(dual.W(pts), sol.W(pts))

    def test_cross_term_duality_preserves_det(self):
        sol = cross_term_solution(0.45)
        dual = dual_transform(sol)
        pts = np.array([[0.1, 0.7]])
        _, H = partial_legendre(dual, pts[0])
        assert abs(np.linalg.det(H) - 1.0) < 1e-12
        assert np.allclose(dual.B(pts), -np.transpose(sol.B(pts[:, ::-1]),
                                                      (0, 2, 1)))

    def test_involution_on_second_derivatives(self):
        sol = harmonic_exp_solution()
        twice = dual_transform(dual_transform(sol))
        pts = np.random.default_rng(3).uniform(-0.4, 0.4, size=(6, 2))
        assert np.max(np.abs(twice.V(pts) - sol.V(pts))) < 1e-8
        assert np.max(np.abs(twice.W(pts) - sol.W(pts))) < 1e-8
        assert np.max(np.abs(twice.B(pts) - sol.B(pts))) < 1e-8

    def test_singular_type_swap(self):
        sol = singular_2d(h=1.0, pair=PAIR)
        dual = dual_transform(sol)
        assert dual.wall_pair[0] is sol.wall_pair[1]
        assert dual.wall_pair[1] is sol.wall_pair[0]
        # the dual of the radial solution has the same holonomy
        rep = beta_holonomy(dual, circle_loop(radius=0.5, segments=64))
        assert abs(rep.holonomy[0, 0] + 1.0) < 1e-6


class TestSingular2D:
    def test_value_at_unit_radius(self):
        sol = singular_2d(h=1.0)
        assert sol.V([[1.0, 0.0]])[0, 0, 0] == pytest.approx(1.0)

    def test_laplacian_away_from_origin(self):
        sol = singular_2d(h=1.0)
        rng = np.random.default_rng(5)
        ang = rng.uniform(0, 2 * np.pi, 40)
        pts = np.stack([0.5 * np.cos(ang), 0.5 * np.sin(ang)], -1)
        lap = sol.V_partial((2, 0), pts) + sol.V_partial((0, 2), pts)
        assert np.max(np.abs(lap)) < 1e-8

    def test_harmonic_shift_with_positivity(self):
        expr = sp.Symbol("s", real=True)
        sol = singular_2d(h=sp.Symbol("s", real=True) + 2.0,
                          domain_radius=0.5)
        vals = sol.V(np.array([[0.3, 0.0], [0.1, 0.2]]))
        assert np.all(vals > 0)

    def test_rejects_nonharmonic(self):
        with pytest.raises(NotHarmonic):
            singular_2d(h=S ** 2 + T ** 2 + 5.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NotPositive):
            singular_2d(h=-3.0)


class TestMonodromy:
    def test_model_pair_generator(self):
        M = monodromy_generator(PAIR, 0, 1, 0, 1)
        assert M.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity_when_same_vertex(self):
        M = monodromy_generator(PAIR, 0, 0, 0, 1)
        assert np.array_equal(M, np.eye(3, dtype=np.int64))

    def test_unipotency_exact(self):
        for i1, i2 in [(0, 1), (1, 0)]:
            for j1, j2 in [(0, 1), (1, 0)]:
                assert is_unipotent(monodromy_generator(PAIR, i1, i2, j1, j2))

    def test_generator_composition(self):
        # splitting dv into two steps multiplies the generators (l = 2 pair)
        tau = LatticeSimplex([(0, 0, 0, 1), (1, 0, 0, 1)])
        sigma = LatticeSimplex([(0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
        pair = validate_dual_pair(tau, sigma)
        M02 = monodromy_generator(pair, 0, 2, 0, 1)
        M01 = monodromy_generator(pair, 0, 1, 0, 1)
        M12 = monodromy_generator(pair, 1, 2, 0, 1)
        assert np.array_equal(M01 @ M12, M02)
        assert np.array_equal(M12 @ M01, M02)

    def test_atlas_contents(self):
        at = atlas(PAIR)
        assert len(at.v_charts) == 2 and len(at.w_charts) == 2
        assert is_unipotent(at.generator(0, 0, 1, 1))
        assert np.array_equal(at.generator(0, 0, 0, 1), np.eye(3, dtype=int))


class TestBetaHolonomy:
    def test_unit_circle_charge(self):
        sol = singular_2d(h=1.0)
        rep = beta_holonomy(sol, circle_loop(radius=1.0, segments=64))
        assert rep.windings == [1]
        assert abs(rep.holonomy[0, 0] + 1.0) < 1e-6
        assert rep.max_abs_error < 1e-6

    def test_gauss_green_oracle(self):
        # oracle: parametrize the unit circle; the closed form reduces to
        # -(1/2pi) oint (s dt - t ds)/r^2 with integrand cos^2 + sin^2 = 1,
        # so the loop integral is exactly -1 for h = const
        ang = np.linspace(0, 2 * np.pi, 4001)
        integrand = np.cos(ang) ** 2 + np.sin(ang) ** 2
        val = -np.trapezoid(integrand, ang) / (2 * np.pi)
        assert abs(val + 1.0) < 1e-12

    def test_non_enclosing_loop(self):
        sol = singular_2d(h=1.0)
        rep = beta_holonomy(sol, circle_loop(center=(0.5, 0.5), radius=0.2,
                                             segments=48))
        assert rep.windings == [0]
        assert abs(rep.holonomy[0, 0]) < 1e-8

    def test_reversal_flips_sign(self):
        sol = singular_2d(h=1.0)
        fwd = beta_holonomy(sol, circle_loop(radius=0.8, segments=48))
        bwd = beta_holonomy(sol, circle_loop(radius=0.8, segments=48,
                                             counterclockwise=False))
        assert abs(fwd.holonomy[0, 0] + bwd.holonomy[0, 0]) < 1e-9

    def test_homotopy_invariance(self):
        sol = singular_2d(h=1.0)
        a = beta_holonomy(sol, circle_loop(radius=0.5, segments=64))
        square = np.array([[0.9, 0.0], [0.0, 0.9], [-0.9, 0.0], [0.0, -0.9]])
        b = beta_holonomy(sol, square, nodes=48)
        assert abs(a.holonomy[0, 0] - b.holonomy[0, 0]) < 1e-6

    def test_loop_through_singularity_rejected(self):
        sol = singular_2d(h=1.0)
        with pytest.raises(LoopHitsSingularity):
            beta_holonomy(sol, np.array([[1.0, 0.0], [-1.0, 0.0],
                                         [0.0, 1.0]]))

    def test_json_report(self):
        sol = singular_2d(h=1.0)
        rep = beta_holonomy(sol, circle_loop(radius=1.0, segments=16))
        import json

        data = json.loads(rep.to_json())
        assert set(data) == {"loop", "windings", "holonomyMatrix",
                             "expectedMatrix", "maxAbsError"}
