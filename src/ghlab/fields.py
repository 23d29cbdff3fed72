"""Scalar fields with closed-form (sympy) or finite-difference partials.

Everything is vectorized over a leading point axis: a point batch is an
array of shape (N, d) of real coordinates, and field values have shape
(N, ...).  Finite differences are central with one Richardson level.
"""

from __future__ import annotations

import numpy as np


class _LazySympy:
    """sympy, imported on first use: only a SymbolicScalarField needs it."""

    def __getattr__(self, name):
        return getattr(__import__("sympy"), name)


# a module-level name rather than a local import: perfbench/tracer.py counts
# the symbolic builds by wrapping sp.diff and sp.lambdify through it
sp = _LazySympy()

# stencils: offset -> coefficient/h^order, all O(h^2) accurate
_STENCILS = {
    0: ((0, 1.0),),
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


def _tensor_stencil(orders, steps):
    """Compose per-axis stencils into (offset vector, coefficient) pairs."""
    points = [((), 1.0)]
    for k, m in enumerate(orders):
        if m > 3:
            raise ValueError("finite differences implemented to order 3")
        h = steps[k]
        base = _STENCILS[m]
        new = []
        for off, co in points:
            for o, c in base:
                new.append((off + (o,), co * c / h ** m if m else co * c))
        points = new
    return points


def fd_step(base, orders):
    """Step for a finite-difference partial of the given multi-index.

    ``base`` is widened 1, 1, 10, 100 times for total order 0, 1, 2 and 3 or
    more, to keep roundoff noise of the high-order stencils in check.
    """
    return base * (1.0, 1.0, 10.0, 100.0)[min(sum(orders), 3)]


def fd_partial(f, pts, orders, steps, return_err=False):
    """Mixed central-difference partial of f at a batch of points.

    ``orders`` is a multi-index over the coordinate axes, ``steps`` the
    per-axis step sizes.  The O(h^2) estimate is Richardson-extrapolated
    once; ``return_err`` additionally returns the absolute disagreement of
    the two grids (an error indicator).
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    orders = tuple(int(o) for o in orders)
    d = pts.shape[1]
    if len(orders) != d:
        raise ValueError("orders length must match point dimension")
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (d,))

    def estimate(scale):
        sc = steps * scale
        total = None
        for off, co in _tensor_stencil(orders, sc):
            shifted = pts.copy()
            for k, o in enumerate(off):
                if o:
                    shifted[:, k] += o * sc[k]
            val = np.asarray(f(shifted))
            total = co * val if total is None else total + co * val
        return total

    coarse = estimate(1.0)
    if sum(orders) == 0:
        if return_err:
            return coarse, np.zeros_like(np.abs(coarse))
        return coarse
    fine = estimate(0.5)
    rich = (4.0 * fine - coarse) / 3.0
    if return_err:
        return rich, np.abs(fine - coarse)
    return rich


class SymbolicScalarField:
    """Scalar field defined by a sympy expression; partials are exact."""

    def __init__(self, expr, symbols):
        self.expr = sp.sympify(expr)
        self.symbols = tuple(symbols)
        self.dim = len(self.symbols)
        self._cache = {}

    def _fn(self, orders):
        orders = tuple(int(o) for o in orders)
        if orders not in self._cache:
            e = self.expr
            for s, m in zip(self.symbols, orders):
                if m:
                    e = sp.diff(e, s, m)
            fn = sp.lambdify(self.symbols, e, modules="numpy")
            self._cache[orders] = fn
        return self._cache[orders]

    def partial_value(self, orders, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self._fn(orders)(*pts.T)
        return np.broadcast_to(np.asarray(out, dtype=float), (pts.shape[0],)).copy()

    def value(self, pts):
        return self.partial_value((0,) * self.dim, pts)


class NumericScalarField:
    """Scalar field from a plain callable; partials by finite differences."""

    def __init__(self, func, dim, steps=1e-4):
        self.func = func
        self.dim = dim
        self.steps = np.broadcast_to(np.asarray(steps, dtype=float), (dim,))

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.func(pts), dtype=float)

    def partial_value(self, orders, pts):
        if sum(orders) == 0:
            return self.value(pts)
        return fd_partial(self.value, pts, orders, fd_step(self.steps, orders))


def shifted(orders, *axes):
    """The multi-index ``orders`` with one added on each of ``axes``."""
    out = list(orders)
    for a in axes:
        out[a] += 1
    return tuple(out)


def unit(n, *axes):
    """Multi-index of length n that is one on each of ``axes``.

    ``unit(3, 1)`` is (0, 1, 0) and ``unit(3, 0, 0)`` is (2, 0, 0).
    """
    return shifted((0,) * n, *axes)


def block_table(pts, rows, cols, entry, symmetric=False, dtype=float):
    """Batched (N, rows, cols) table with ``[:, i, j] = entry(i, j, pts)``.

    With ``symmetric`` only the entries with i <= j are evaluated and the
    others are mirrored from them.
    """
    pts = np.atleast_2d(pts)
    out = np.empty((pts.shape[0], rows, cols), dtype=dtype)
    for i in range(rows):
        for j in range(i if symmetric else 0, cols):
            out[:, i, j] = entry(i, j, pts)
            if symmetric:
                out[:, j, i] = out[:, i, j]
    return out


def wirtinger_expansion(n, l, alpha, beta, gamma):
    """Real-coordinate expansion of d^alpha_u d^beta_eta d^gamma_etabar.

    Coordinates are ordered (u_1..u_n, x_1..x_l, y_1..y_l) with
    eta_p = x_p + i y_p, so d/d eta = (d/dx - i d/dy)/2 and
    d/d etabar = (d/dx + i d/dy)/2.  Returns {real multi-index: complex}.
    """
    d = n + 2 * l
    terms = {tuple([0] * d): 1.0 + 0.0j}

    def apply(factors):
        nonlocal terms
        new = {}
        for mi, co in terms.items():
            for axis, c in factors:
                key = list(mi)
                key[axis] += 1
                key = tuple(key)
                new[key] = new.get(key, 0.0j) + co * c
        terms = new

    for i, m in enumerate(alpha):
        for _ in range(m):
            apply([(i, 1.0 + 0.0j)])
    for p, m in enumerate(beta):
        for _ in range(m):
            apply([(n + p, 0.5 + 0.0j), (n + l + p, -0.5j)])
    for q, m in enumerate(gamma):
        for _ in range(m):
            apply([(n + q, 0.5 + 0.0j), (n + l + q, 0.5j)])
    return terms
