import numpy as np
import pytest
import sympy as sp

from ghlab.fields import SymbolicScalarField, fd_partial, wirtinger_expansion
from ghlab.ghcore import (
    BoxDomain,
    DomainViolation,
    GHError,
    GHSolution,
    NotPositiveDefinite,
    PotentialField,
    completeness_probe,
    connection_form,
    curvature,
    curvature_form,
    derive_vw,
    potential_identity_residual,
    verify_closed,
    verify_compat,
)


def quadratic_potential():
    # Phi = u^2/2 - |eta|^2/4: V = [1], W = [1], no mixed terms
    u, x, y = sp.symbols("u x y", real=True)
    expr = u ** 2 / 2 - (x ** 2 + y ** 2) / 4
    return PotentialField.from_sympy(expr, (u, x, y), n=1, l=1)


def coupled_potential():
    # smooth potential with all blocks nontrivial
    u, x, y = sp.symbols("u x y", real=True)
    expr = (u ** 2 / 2 - (x ** 2 + y ** 2) / 4
            + sp.Rational(1, 10) * u * x * y
            + sp.Rational(1, 20) * sp.cos(x) * sp.exp(-u ** 2 / 4))
    return PotentialField.from_sympy(expr, (u, x, y), n=1, l=1)


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

    def test_wirtinger_expansion_basic(self):
        # d/d eta of x^2 + y^2 = (dx - i dy)/2 (x^2+y^2) = x - i y = etabar
        exp = wirtinger_expansion(0, 1, (), (1,), (0,))
        assert exp == {(1, 0): 0.5, (0, 1): -0.5j}
        exp2 = wirtinger_expansion(0, 1, (), (1,), (1,))
        # d2/(d eta d etabar) = (dxx + dyy)/4
        assert exp2[(2, 0)] == pytest.approx(0.25)
        assert exp2[(0, 2)] == pytest.approx(0.25)
        assert exp2[(1, 1)] == pytest.approx(0.0)


class TestDeriveVW:
    def test_quadratic_identity_blocks(self):
        V, W = derive_vw(quadratic_potential(), [0.2, 0.5, -0.3])
        assert np.allclose(V, [[1.0]], atol=1e-12)
        assert np.allclose(W, [[1.0]], atol=1e-12)

    def test_not_positive_definite(self):
        u, x, y = sp.symbols("u x y", real=True)
        phi = PotentialField.from_sympy(-u ** 2 - (x ** 2 + y ** 2) / 4,
                                        (u, x, y), n=1, l=1)
        with pytest.raises(NotPositiveDefinite):
            derive_vw(phi, [0.0, 0.1, 0.1])

    def test_domain_violation(self):
        u, x, y = sp.symbols("u x y", real=True)
        phi = PotentialField.from_sympy(u ** 2 / 2 - (x ** 2 + y ** 2) / 4,
                                        (u, x, y), n=1, l=1,
                                        domain=BoxDomain([(-1, 1)] * 3))
        with pytest.raises(DomainViolation):
            derive_vw(phi, [2.0, 0.0, 0.0])

    def test_fd_backed_potential_agrees_with_symbolic(self):
        sym = coupled_potential()
        num = PotentialField.from_callable(
            lambda pts: sym.value(pts), n=1, l=1, steps=1e-4)
        pt = [0.4, -0.3, 0.8]
        Vs, Ws = derive_vw(sym, pt)
        Vn, Wn = derive_vw(num, pt)
        assert np.max(np.abs(Vs - Vn)) < 1e-6
        assert np.max(np.abs(Ws - Wn)) < 1e-6


class TestConnectionAndCurvature:
    def test_no_mixed_terms_zero_connection(self):
        d_eta, d_eta_bar = connection_form(quadratic_potential(), [0.1, 0.2, 0.3])
        assert np.allclose(d_eta, 0.0)
        assert np.allclose(d_eta_bar, 0.0)

    def test_connection_reality(self):
        # the d etabar coefficient -i Phi_{u etabar}, computed on its own,
        # is the conjugate of the d eta coefficient
        phi = coupled_potential()
        pt = [0.7, -0.2, 0.4]
        d_eta, d_eta_bar = connection_form(phi, pt)
        own = -1j * phi.wirtinger((1,), (0,), (1,), [pt])[0]
        assert np.allclose(d_eta_bar[0, 0], own, atol=1e-12)
        assert np.allclose(d_eta_bar, np.conj(d_eta), atol=1e-12)

    def test_quadratic_curvature_vanishes(self):
        F = curvature(quadratic_potential(), [0.3, -0.1, 0.6])
        assert F.shape == (1, 3, 3)
        assert np.allclose(F, 0.0, atol=1e-14)

    def test_curvature_closed_form_vs_fd(self):
        phi = coupled_potential()
        sol = GHSolution.from_potential(phi)
        fd_sol = GHSolution(1, 1, sol.V, sol.W)  # partials fall back to FD
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.8, 0.8, size=(5, 3))
        exact = curvature(sol, pts[0])
        approx = curvature(fd_sol, pts[0])
        assert np.max(np.abs(exact)) > 1e-3
        assert np.max(np.abs(exact - approx)) < 1e-6

    def test_complex_base_block_is_not_real(self):
        # W = 1 + i u is not hermitian: (i/2) dW/du d eta ^ d etabar has the
        # imaginary dx ^ dy component -i (i/2)(2i) = i
        fake = GHSolution(1, 1, lambda pts: np.ones((len(pts), 1, 1)),
                          lambda pts: (1.0 + 1j * pts[:, 0])[:, None, None])
        with pytest.raises(GHError, match=r"component \(1, 2\) is not real"):
            curvature_form(fake, [[0.1, 0.2, 0.3]])


class TestVerifiers:
    def test_quadratic_closedness_tiny(self):
        rep = verify_closed(quadratic_potential(),
                            [[0.1, 0.2, 0.3], [0.5, -0.4, 0.2]])
        assert rep.max_residual < 1e-12
        assert rep.passed

    def test_coupled_potential_closedness(self):
        phi = coupled_potential()
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.7, 0.7, size=(20, 3))
        rep = verify_closed(phi, pts, step=1e-4, tolerance=1e-6)
        assert rep.passed, rep.to_json()

    def test_identity_residual_is_fourth_order_consistency(self):
        phi = coupled_potential()
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, size=(10, 3))
        assert potential_identity_residual(
            GHSolution.from_potential(phi), pts) < 1e-6

    def test_residual_scales_quadratically_in_step(self):
        # Richardson-consistency: halving the step shrinks the raw FD error
        u, x, y = sp.symbols("u x y", real=True)
        expr = u ** 2 / 2 - (x ** 2 + y ** 2) / 4 + sp.sin(u) * sp.cos(x) / 8
        phi = PotentialField.from_sympy(expr, (u, x, y), n=1, l=1)
        pts = np.array([[0.3, 0.4, 0.1]])
        sol = GHSolution.from_potential(phi)

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
        phi = quadratic_potential()
        sol = GHSolution.from_potential(phi)
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
        r1 = verify_compat(PotentialField.from_sympy(base, (u, x, y), 1, 1), pts)
        r2 = verify_compat(PotentialField.from_sympy(shifted, (u, x, y), 1, 1),
                           pts)
        assert abs(r1.max_residual - r2.max_residual) < 1e-12


class TestCompletenessProbe:
    def test_constant_v_linear_growth(self):
        sol = GHSolution.from_potential(quadratic_potential())
        probe = completeness_probe(sol, 0, 0, [1.0, 2.0, 4.0, 8.0],
                                   base=[0.0, 1.0, 0.0])
        assert probe.increasing
        assert probe.verdict == "diverging"
        # V = 1 means the integrals equal the cutoffs
        assert np.allclose(probe.values, [1.0, 2.0, 4.0, 8.0], rtol=1e-3)

    def test_synthetic_convergent_flagged(self):
        # (V^{-1}) = e^{u}: partial integrals converge
        def V(pts):
            return np.exp(-np.atleast_2d(pts)[:, 0])[:, None, None]

        sol = GHSolution(1, 0, V, lambda pts: None)
        probe = completeness_probe(sol, 0, 0, [2.0, 6.0, 12.0, 24.0],
                                   samples=4001)
        assert probe.verdict == "inconclusive/convergent"
