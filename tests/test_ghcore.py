import numpy as np
import pytest
import sympy as sp

from ghlab import ghcore
from ghlab.fields import SymbolicScalarField, fd_partial
from ghlab.ghcore import (
    DomainViolation,
    GHError,
    GHSolution,
    RadialDomain,
    curvature_form,
    potential_identity_residual,
    verify_closed,
    verify_compat,
)
from ghlab.lattice import _leggauss
from ghlab.solutions import taub_nut


def quadratic_potential():
    # Phi = u^2/2 - |eta|^2/4: V = [1], W = [1], no mixed terms
    u, x, y = sp.symbols("u x y", real=True)
    expr = u ** 2 / 2 - (x ** 2 + y ** 2) / 4
    return GHSolution.from_potential(
        SymbolicScalarField(expr, (u, x, y)), 1, 1)


def coupled_potential():
    # smooth potential with all blocks nontrivial
    u, x, y = sp.symbols("u x y", real=True)
    expr = (u ** 2 / 2 - (x ** 2 + y ** 2) / 4
            + sp.Rational(1, 10) * u * x * y
            + sp.Rational(1, 20) * sp.cos(x) * sp.exp(-u ** 2 / 4))
    return GHSolution.from_potential(
        SymbolicScalarField(expr, (u, x, y)), 1, 1)


class TestFiniteDifferences:
    def test_fd_matches_symbolic(self):
        u, x, y = sp.symbols("u x y", real=True)
        expr = sp.exp(u) * sp.sin(x) + u * y ** 3
        f = SymbolicScalarField(expr, (u, x, y))
        pts = np.array([[0.3, 0.7, -0.4], [1.1, -0.2, 0.5]])
        steps = {1: 1e-4, 2: 1e-3, 3: 1e-2}
        for orders in [(1, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 3), (1, 0, 2)]:
            exact = f.partial_value(orders, pts)
            approx = fd_partial(f.value, pts, orders, steps[sum(orders)])
            assert np.max(np.abs(exact - approx)) < 1e-6


class TestDeriveVW:
    def test_quadratic_identity_blocks(self):
        sol = quadratic_potential()
        pts = np.array([[0.2, 0.5, -0.3]])
        assert np.allclose(sol.V(pts)[0], [[1.0]], atol=1e-12)
        assert np.allclose(sol.W(pts)[0], [[1.0]], atol=1e-12)

    def test_domain_violation(self):
        u, x, y = sp.symbols("u x y", real=True)
        K = SymbolicScalarField(u ** 2 / 2 - (x ** 2 + y ** 2) / 4, (u, x, y))
        sol = GHSolution.from_potential(K, 1, 1,
                                        domain=RadialDomain(0.0, 1.0))
        with pytest.raises(DomainViolation):
            verify_closed(sol, [[2.0, 0.0, 0.0]])

    def test_field_dimension_must_be_n_plus_2l(self):
        u, x, y = sp.symbols("u x y", real=True)
        K = SymbolicScalarField(u ** 2 / 2 - (x ** 2 + y ** 2) / 4, (u, x, y))
        with pytest.raises(ValueError, match="dimension"):
            GHSolution.from_potential(K, 2, 1)


class TestConnectionAndCurvature:
    def test_no_mixed_terms_zero_connection(self):
        d_eta = quadratic_potential().connection([[0.1, 0.2, 0.3]])
        assert np.allclose(d_eta, 0.0)

    def test_connection_reality(self):
        # the d etabar coefficient -i Phi_{u etabar}, from sp.diff, is the
        # conjugate of the d eta coefficient
        sol = coupled_potential()
        pt = [0.7, -0.2, 0.4]
        d_eta = sol.connection([pt])[0]
        u, x, y = sol.potential.symbols
        phi_u = sp.diff(sol.potential.expr, u)
        own = -sp.I * (sp.diff(phi_u, x) + sp.I * sp.diff(phi_u, y)) / 2
        own = complex(own.subs(dict(zip((u, x, y), pt))))
        assert np.allclose(np.conj(d_eta[0, 0]), own, atol=1e-12)

    def test_quadratic_curvature_vanishes(self):
        F = curvature_form(quadratic_potential(), [[0.3, -0.1, 0.6]])[0]
        assert F.shape == (1, 3, 3)
        assert np.allclose(F, 0.0, atol=1e-14)

    def test_curvature_closed_form_vs_fd(self):
        sol = coupled_potential()
        fd_sol = GHSolution(1, 1, sol.V, sol.W)  # partials fall back to FD
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.8, 0.8, size=(5, 3))
        exact = curvature_form(sol, pts[:1])[0]
        approx = curvature_form(fd_sol, pts[:1])[0]
        assert np.max(np.abs(exact)) > 1e-3
        assert np.max(np.abs(exact - approx)) < 1e-6

    def test_complex_base_block_is_not_real(self):
        # W = 1 + i u is not hermitian: (i/2) dW/du d eta ^ d etabar has the
        # imaginary dx ^ dy component -i (i/2)(2i) = i
        fake = GHSolution(1, 1, lambda pts: np.ones((len(pts), 1, 1)),
                          lambda pts: (1.0 + 1j * pts[:, 0])[:, None, None])
        with pytest.raises(GHError, match=r"component \(1, 2\) is not real"):
            curvature_form(fake, [[0.1, 0.2, 0.3]])


class TestTwoByTwoBlocks:
    """n = l = 2: every block coupled, including the i-term of W off its
    diagonal and the n x l connection, against sp.diff Wirtinger oracles."""

    SYMS = sp.symbols("u1 u2 x1 x2 y1 y2", real=True)

    @classmethod
    def potential(cls):
        u1, u2, x1, x2, y1, y2 = cls.SYMS
        return ((u1 ** 2 + u2 ** 2) / 2 + u1 * u2 / 4 + u1 * x1 * y2
                - u2 * x2 * y1 + sp.exp(u1 / 3) * sp.cos(x2 - y1) / 5
                + u2 * (x1 ** 2 - y2 ** 2) / 3
                + sp.log(3 + x1 * x2 + y1 ** 2) * u1 / 7
                + sp.sin(u2 + y2) * x1 / 6)

    @classmethod
    def oracles(cls, expr):
        """V^{ij}, W^{pq} = -4 Phi_{eta_p etabar_q} and the d eta_p
        coefficient i Phi_{u_j eta_p} of A_j, as sympy matrices."""
        u, x, y = cls.SYMS[:2], cls.SYMS[2:4], cls.SYMS[4:]

        def d_eta(f, p):
            return (sp.diff(f, x[p]) - sp.I * sp.diff(f, y[p])) / 2

        def d_etabar(f, q):
            return (sp.diff(f, x[q]) + sp.I * sp.diff(f, y[q])) / 2

        V = sp.Matrix(2, 2, lambda i, j: sp.diff(expr, u[i], u[j]))
        W = sp.Matrix(2, 2, lambda p, q: -4 * d_etabar(d_eta(expr, p), q))
        A = sp.Matrix(2, 2, lambda j, p: sp.I * d_eta(sp.diff(expr, u[j]), p))
        return V, W, A

    @classmethod
    def evaluate(cls, matrix, pts):
        f = sp.lambdify(cls.SYMS, matrix, "numpy")
        return np.array([np.array(f(*pt), dtype=complex) for pt in pts])

    def test_blocks_and_partials_match_wirtinger_oracles(self):
        expr = self.potential()
        sol = GHSolution.from_potential(SymbolicScalarField(expr, self.SYMS),
                                        2, 2)
        pts = np.random.default_rng(8).uniform(-0.5, 0.5, size=(12, 6))
        V, W, A = self.oracles(expr)
        # one first partial of each block, along u1, x2 and y1
        cases = [(sol.V(pts), V), (sol.W(pts), W), (sol.connection(pts), A),
                 (sol.V_partial((0, 0, 0, 1, 0, 0), pts),
                  V.diff(self.SYMS[3])),
                 (sol.W_partial((1, 0, 0, 0, 0, 0), pts),
                  W.diff(self.SYMS[0]))]
        for got, oracle in cases:
            ref = self.evaluate(oracle, pts)
            assert np.max(np.abs(ref)) > 1e-2
            assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) \
                < 1e-12
        # the i-term off the diagonal of W is present and W is hermitian
        W_num = sol.W(pts)
        assert np.min(np.abs(W_num[:, 0, 1].imag)) > 1e-3
        assert np.array_equal(W_num, np.conj(np.swapaxes(W_num, 1, 2)))

    def test_closed(self):
        sol = GHSolution.from_potential(
            SymbolicScalarField(self.potential(), self.SYMS), 2, 2)
        pts = np.random.default_rng(9).uniform(-0.5, 0.5, size=(8, 6))
        rep = verify_closed(sol, pts, step=1e-4, tolerance=1e-6)
        assert rep.passed, rep


class TestVerifiers:
    def test_quadratic_closedness_tiny(self):
        rep = verify_closed(quadratic_potential(),
                            [[0.1, 0.2, 0.3], [0.5, -0.4, 0.2]])
        assert rep.max_residual < 1e-12
        assert rep.passed

    def test_coupled_potential_closedness(self):
        sol = coupled_potential()
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.7, 0.7, size=(20, 3))
        rep = verify_closed(sol, pts, step=1e-4, tolerance=1e-6)
        assert rep.passed, rep

    def test_step_too_coarse_for_the_tolerance_fails(self):
        # the residuals stay small, but the two Richardson grids disagree
        # by more than 10 x tolerance: the report fails and names where
        sol = taub_nut(2.0, 1.0)
        pts = np.array([[0.3, 0.2, 0.1], [0.8, -0.5, 0.4]])
        fine = verify_closed(sol, pts, step=1e-4, tolerance=1e-6)
        assert fine.passed and not fine.extra["stepTooLarge"]
        rep = verify_closed(sol, pts, step=1e-2, tolerance=1e-6)
        assert not rep.passed and rep.extra["stepTooLarge"]
        assert rep.extra["richardson"] > 1e-5
        assert rep.extra["richardsonPoint"] in pts.tolist()

    def test_identity_residual_is_fourth_order_consistency(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, size=(10, 3))
        assert potential_identity_residual(coupled_potential(), pts) < 1e-6

    def test_one_curvature_form_call_per_residual(self, monkeypatch):
        # dF needs 3 axes x 2 stencil points x 2 Richardson grids of F: one
        # stacked call on 12 x 64 rows, where a per-stencil loop makes 12
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(256, 3))
        pts *= rng.uniform(0.5, 2.0, size=(256, 1)) \
            / np.linalg.norm(pts, axis=1, keepdims=True)
        r = np.linalg.norm(pts, axis=1)
        pts = pts[pts[:, 0] + r >= 0.25 * np.maximum(r, 1.0)][:64]
        assert len(pts) == 64
        rows = []
        form = ghcore.curvature_form

        def counting(sol, q):
            rows.append(len(q))
            return form(sol, q)

        monkeypatch.setattr(ghcore, "curvature_form", counting)
        rep = verify_closed(taub_nut(2.0, 1.0), pts)
        assert rep.passed, rep
        assert rows == [12 * 64]

    def test_residual_scales_quadratically_in_step(self):
        # Richardson-consistency: halving the step shrinks the raw FD error
        u, x, y = sp.symbols("u x y", real=True)
        expr = u ** 2 / 2 - (x ** 2 + y ** 2) / 4 + sp.sin(u) * sp.cos(x) / 8
        sol = GHSolution.from_potential(
            SymbolicScalarField(expr, (u, x, y)), 1, 1)
        pts = np.array([[0.3, 0.4, 0.1]])

        def f(q):
            return curvature_form(sol, q)

        errs = []
        for h in (2e-3, 1e-3):
            _, e = fd_partial(f, pts, (1, 0, 0), h, return_err=True)
            errs.append(float(np.max(e)))
        # raw central differences of both grids differ at O(h^2)
        assert errs[1] < 0.4 * errs[0]

    def test_compat_quadratic_exact(self):
        rep = verify_compat(quadratic_potential(), [[0.3, 0.1, -0.2]])
        assert rep.max_residual < 1e-12

    def test_compat_detects_perturbation(self):
        sol = quadratic_potential()
        eps = 3e-4
        bad = GHSolution(1, 1, sol.V,
                         lambda pts: sol.W(pts) * (1.0 + eps))
        rep = verify_compat(bad, [[0.2, 0.4, 0.0]])
        assert abs(rep.max_residual - eps) < 1e-6

    def test_compat_gauge_invariance(self):
        # adding an affine function of (u, x, y) leaves the residual unchanged
        u, x, y = sp.symbols("u x y", real=True)
        base = (u ** 2 / 2 - (x ** 2 + y ** 2) / 4
                + sp.Rational(1, 30) * u * x * y)
        shifted = base + 3 * u - 2 * x + sp.Rational(1, 2) * y + 7
        pts = np.random.default_rng(6).uniform(-0.5, 0.5, size=(8, 3))
        r1, r2 = (verify_compat(GHSolution.from_potential(
            SymbolicScalarField(K, (u, x, y)), 1, 1), pts)
            for K in (base, shifted))
        assert abs(r1.max_residual - r2.max_residual) < 1e-12

    @pytest.mark.parametrize("verify", [verify_closed, verify_compat])
    def test_empty_batch_is_refused(self, verify):
        with pytest.raises(GHError, match="empty"):
            verify(quadratic_potential(), np.zeros((0, 3)))



class TestGaussLegendreRule:
    @pytest.mark.parametrize("order", [12, 32, 64])
    def test_cached_rule_is_read_only(self, order):
        # every later call shares the arrays, so an edit in place raises
        rule = _leggauss(order)
        assert _leggauss(order) is rule
        for a in rule:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("nphi,ntheta", [(32, 64), (64, 128)])
    def test_sphere_grid_keeps_its_bits(self, nphi, ntheta):
        # numpy's rule built afresh: the cache must not move a bit
        nodes, weights = np.polynomial.legendre.leggauss(nphi)
        want = (0.5 * np.pi * (nodes + 1.0), 0.5 * np.pi * weights,
                2.0 * np.pi * np.arange(ntheta) / ntheta,
                np.full(ntheta, 2.0 * np.pi / ntheta))
        for got, ref in zip(ghcore._sphere_grid(nphi, ntheta), want):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
