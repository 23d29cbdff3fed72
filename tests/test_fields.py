"""Taylor jets against sympy's symbolic derivatives as the oracle."""

import functools
import itertools
import math

import numpy as np
import pytest
import sympy as sp

from ghlab.fields import (FD_SLICE_ROWS, Jet, JetScalarField,
                          SymbolicScalarField, _tensor_stencil, fd_partial,
                          log, sqrt)
from ghlab.legendre import (SplitMASolution, dual_transform, model_potential,
                            singular_2d)
from ghlab.solutions import taub_nut

U, X, Y = sp.symbols("u x y", real=True)
S, T = sp.symbols("s t", real=True)
ELL, A = sp.symbols("ell a", positive=True)
R = sp.sqrt(U ** 2 + X ** 2 + Y ** 2)
TAUB_NUT = (ELL / 2 * (U * sp.log(U + R) - R) + A / 2 * U ** 2
            - A / 4 * (X ** 2 + Y ** 2))


def multi_indices(dim, top=4):
    return [o for o in itertools.product(range(top + 1), repeat=dim)
            if 0 < sum(o) <= top]


@functools.lru_cache(maxsize=None)
def derivative(expr, symbols, orders):
    """sp.diff of expr to the multi-index, one order at a time."""
    if not any(orders):
        return expr
    k = max(i for i, m in enumerate(orders) if m)
    lower = tuple(m - (i == k) for i, m in enumerate(orders))
    return sp.diff(derivative(expr, symbols, lower), symbols[k])


@functools.lru_cache(maxsize=None)
def lambdified(expr, symbols, orders, params):
    return sp.lambdify(symbols + params, derivative(expr, symbols, orders),
                       "numpy")


def oracle(expr, symbols, orders, pts, params=()):
    """The partial from sp.diff, lambdified with numpy; ``params`` are
    (symbol, value) pairs substituted after differentiation."""
    fn = lambdified(expr, symbols, orders, tuple(p for p, _ in params))
    out = fn(*pts.T, *(v for _, v in params))
    return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],))


def assert_jets_match(partial, expr, symbols, pts, params=()):
    """Every partial to total order 4 within 1e-13 relative (order <= 3)
    and 1e-12 relative (order 4), relative to max(|ref|, 1)."""
    for orders in multi_indices(len(symbols)):
        ref = oracle(expr, symbols, orders, pts, params)
        err = np.abs(partial(orders, pts) - ref) / np.maximum(np.abs(ref), 1.0)
        tol = 1e-13 if sum(orders) <= 3 else 1e-12
        assert np.max(err) <= tol, (orders, float(np.max(err)))


def taubnut_points(count=40, seed=11):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(4 * count, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    p *= rng.uniform(0.5, 2.0, size=(4 * count, 1))
    r = np.linalg.norm(p, axis=1)
    return p[p[:, 0] + r >= 0.25 * np.maximum(r, 1.0)][:count]


class TestBuiltinPotentialsAgainstSympy:
    @pytest.mark.parametrize("ell,a", [(2.0, 1.0), (1.0, 0.0), (1.7, 0.3)])
    def test_taub_nut(self, ell, a):
        field = taub_nut(ell, a).potential
        assert_jets_match(field.partial_value, TAUB_NUT, (U, X, Y),
                          taubnut_points(), params=((ELL, ell), (A, a)))

    @pytest.mark.parametrize("family,expr", [
        ("quadratic", S ** 2 / 2 - T ** 2 / 2),
        ("cross", S ** 2 / 2 + sp.Float(0.37) * S * T - T ** 2 / 2),
        ("harmonic", sp.exp(S) * sp.cos(T)),
    ])
    def test_split_families(self, family, expr):
        pts = np.random.default_rng(12).uniform(-1.5, 1.5, size=(30, 2))
        field = model_potential(family, b=0.37)
        assert_jets_match(field.partial_value, expr, (S, T), pts)

    def test_singular_2d(self):
        rng = np.random.default_rng(13)
        ang = rng.uniform(0.0, 2.0 * np.pi, 30)
        rad = rng.uniform(0.1, 1.0, 30)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)
        expr = -sp.log(S ** 2 + T ** 2) / (4 * sp.pi) + sp.Float(1.3)
        sol = singular_2d(h=1.3)
        assert_jets_match(lambda o, p: sol.V_partial(o, p)[:, 0, 0],
                          expr, (S, T), pts)
        # a sympy h goes through the lambdified jets of its expression
        h_sym = singular_2d(h=S * T + 2, domain_radius=0.5)
        inner = pts[rad < 0.5]
        assert_jets_match(lambda o, p: h_sym.V_partial(o, p)[:, 0, 0],
                          expr - sp.Float(1.3) + S * T + 2, (S, T), inner)


class TestSymbolicScalarField:
    def test_every_jet_rule(self):
        expr = (sp.exp(-U ** 2 / 4) * sp.sin(X) / (2 + sp.cos(Y))
                + sp.sqrt(1 + U ** 2) * sp.log(2 + X * Y + U)
                + (3 + U) ** sp.Rational(3, 2) - sp.pi * U / (1 + X ** 2)
                + sp.E ** X * (2 + Y) ** (U / 3) + sp.E * Y)
        pts = np.random.default_rng(14).uniform(-0.6, 0.6, size=(25, 3))
        field = SymbolicScalarField(expr, (U, X, Y))
        assert_jets_match(field.partial_value, expr, (U, X, Y), pts)

    def test_value_matches_numpy_lambdify(self):
        expr = U * sp.log(U + R)
        pts = taubnut_points(10)
        field = SymbolicScalarField(expr, (U, X, Y))
        np.testing.assert_allclose(field.value(pts),
                                   oracle(expr, (U, X, Y), (0, 0, 0), pts),
                                   rtol=1e-15)

    def test_constant_expression(self):
        field = SymbolicScalarField(sp.Float(2.5), (S, T))
        pts = np.zeros((3, 2))
        assert np.all(field.value(pts) == 2.5)
        assert np.all(field.partial_value((1, 1), pts) == 0.0)

    def test_unsupported_function_is_refused(self):
        with pytest.raises(ValueError, match="tan"):
            SymbolicScalarField(sp.tan(S) + T, (S, T))


class TestJetAlgebra:
    def test_box_coefficients_are_scaled_partials(self):
        # f = x^3 y^2: c[a] = d^a f / a! is a binomial coefficient times a
        # monomial, read over the whole box (3, 2)
        pts = np.array([[0.7, -1.3]])
        x, y = Jet.variables(pts, (3, 2))
        c = (x ** 3 * y ** 2).c[..., 0]
        for i, j in itertools.product(range(4), range(3)):
            want = math.comb(3, i) * math.comb(2, j) \
                * 0.7 ** (3 - i) * (-1.3) ** (2 - j)
            assert c[i, j] == pytest.approx(want, rel=1e-15)

    def test_division_inverts_product(self):
        pts = np.random.default_rng(15).uniform(0.5, 2.0, size=(8, 2))
        x, y = Jet.variables(pts, (2, 3))
        g = 1.0 + x * y + sqrt(x)
        back = (g * (x + log(y))) / g - log(y)
        np.testing.assert_allclose(back.c, x.c, atol=1e-14)

    def test_reflected_operations(self):
        pts = np.array([[0.4, 0.9]])
        f = JetScalarField(lambda s, t: 2.0 - 3.0 / (1.0 + s) + 2.0 ** t, 2)
        assert f.partial_value((1, 0), pts)[0] == pytest.approx(3.0 / 1.4 ** 2)
        assert f.partial_value((0, 2), pts)[0] == pytest.approx(
            2.0 ** 0.9 * math.log(2.0) ** 2)

    def test_empty_batch(self):
        # a product of jets over zero points keeps its coefficient box
        x, y = Jet.variables(np.zeros((0, 2)), (2, 1))
        assert (x * y).c.shape == (3, 2, 0)
        assert taub_nut(2, 1).V(np.zeros((0, 3))).shape == (0, 1, 1)

    def test_dual_of_jet_potential_is_exact(self):
        sol = SplitMASolution.from_potential(model_potential("harmonic"), 1, 1)
        dual = dual_transform(sol)
        assert isinstance(dual.potential, JetScalarField)
        pts = np.random.default_rng(16).uniform(-0.4, 0.4, size=(6, 2))
        swapped = pts[:, ::-1]
        # the dual's fiber gradient -K_t at the swapped point, exactly
        K_t = -np.exp(pts[:, 0]) * np.sin(pts[:, 1])
        np.testing.assert_allclose(dual.gradient_s(swapped)[:, 0], -K_t,
                                   rtol=1e-15)
        twice = dual_transform(dual)
        np.testing.assert_array_equal(twice.gradient_s(pts),
                                      sol.gradient_s(pts))


def per_stencil_partial(f, pts, orders, steps):
    """The finite difference with one f call per stencil point, summed in
    stencil order: the reference the stacked evaluation must match bitwise.
    Returns the estimate and the disagreement of the two grids."""
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (pts.shape[1],))

    def estimate(scale):
        sc = steps * scale
        total = None
        for off, co in _tensor_stencil(orders, sc):
            shifted = pts.copy()
            for k, o in enumerate(off):
                if o:
                    shifted[:, k] += o * sc[k]
            val = f(shifted)
            total = co * val if total is None else total + co * val
        return total

    coarse = estimate(1.0)
    if not sum(orders):
        return coarse, np.zeros_like(coarse)
    fine = estimate(0.5)
    return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse)


def two_fields(q):
    """An (N, 2) table of two smooth fields of three coordinates."""
    return np.stack([np.sin(q[:, 0]) * np.exp(q[:, 1]) + q[:, 2] ** 3,
                     np.log(2.0 + q[:, 0] * q[:, 2]) / (1.0 + q[:, 1] ** 2)],
                    axis=1)


class TestStackedFiniteDifferences:
    ORDERS = [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 0, 2), (1, 1, 1)]
    STEPS = (1e-3, 2e-3, 1.5e-3)

    @pytest.mark.parametrize("orders", ORDERS)
    # 2000 points make more stacked rows than one slice for every order but 0
    @pytest.mark.parametrize("count", [7, 2000])
    def test_bitwise_equal_to_per_stencil_loop(self, orders, count):
        pts = np.random.default_rng(21).uniform(-0.5, 0.5, size=(count, 3))
        got = fd_partial(two_fields, pts, orders, self.STEPS, return_err=True)
        want = per_stencil_partial(two_fields, pts, orders, self.STEPS)
        for g, w in zip(got, want):
            assert g.shape == (count, 2)
            assert np.array_equal(g, w)

    def test_several_multi_indices_in_one_call(self):
        pts = np.random.default_rng(22).uniform(-0.5, 0.5, size=(300, 3))
        rows = []

        def f(q):
            rows.append(len(q))
            return two_fields(q)

        got = fd_partial(f, pts, self.ORDERS, self.STEPS)
        # the stencil points of each multi-index, over both grids but one
        # grid for order 0; ceil(300 x 39 / 4096) = 3 slices
        assert sum(rows) == 300 * (1 + 2 * (2 + 3 + 6 + 8))
        assert len(rows) == 3
        for g, orders in zip(got, self.ORDERS):
            want, _ = per_stencil_partial(two_fields, pts, orders, self.STEPS)
            assert np.array_equal(g, want)

    def test_empty_batch(self):
        rows = []

        def f(q):
            rows.append(len(q))
            return two_fields(q)

        pts = np.zeros((0, 3))
        val, err = fd_partial(f, pts, (1, 0, 2), self.STEPS, return_err=True)
        assert val.shape == err.shape == (0, 2)
        assert rows == [0]

    def test_slices_bound_the_stacked_batch(self):
        # 5,000 points make 20,000 stencil rows; no f call sees more than a
        # slice, and every row is evaluated once
        pts = np.random.default_rng(23).uniform(-0.5, 0.5, size=(5000, 3))
        rows = []

        def f(q):
            rows.append(len(q))
            return two_fields(q)

        got = fd_partial(f, pts, (1, 0, 0), self.STEPS)
        assert max(rows) <= FD_SLICE_ROWS
        assert sum(rows) == 4 * 5000
        want, _ = per_stencil_partial(two_fields, pts, (1, 0, 0), self.STEPS)
        assert np.array_equal(got, want)
