"""Scalar fields with exact (Taylor-jet) or finite-difference partials.

Everything is vectorized over a leading point axis: a point batch is an
array of shape (N, d) of real coordinates, and field values have shape
(N, ...).

Exact partials come from truncated Taylor jets.  A ``Jet`` holds the
coefficients c[a] = d^a f / a! of a function over the point batch, for every
multi-index a in a box a <= o; the box is closed under products, since the
a-coefficient of a product needs only the b <= a of its factors.  Jets
support +, -, *, / and ``**``, and ``log``, ``exp``, ``sqrt``, ``sin`` and
``cos`` by univariate Taylor composition (Horner's rule in h = g - g(x0)).
A ``JetScalarField`` evaluates a plain Python function of the coordinates
once on the jets of the box of the requested multi-index and reads that
partial off the top coefficient; a sympy expression becomes such a function
through one ``lambdify`` into the jet namespace.  ``hessian_block`` tables
the mixed second partials of such a field over two groups of axes, which is
all a block solution needs of its potential.

Finite differences are central with one Richardson level, at the one fixed
step ``fd_step`` of each multi-index.
"""

from __future__ import annotations

import functools
import math
import operator
import sys

import numpy as np


class _LazySympy:
    """sympy, imported on first use: only sympy input needs it."""

    def __getattr__(self, name):
        return getattr(__import__("sympy"), name)


# a module-level name rather than a local import: perfbench/tracer.py counts
# the symbolic builds by wrapping sp.lambdify through it
sp = _LazySympy()


def is_sympy_expr(obj):
    """Whether ``obj`` is a sympy object; never imports sympy itself."""
    mod = sys.modules.get("sympy")
    return mod is not None and isinstance(obj, mod.Basic)


# ---------------------------------------------------------------------------
# truncated Taylor jets
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _product_plan(shape):
    """Index pairs of the box product over a flattened coefficient box.

    Returns (left, right, starts): out[:, k] is the sum of the products
    left[i] * right[i] over the i in starts[k] <= i < starts[k + 1], and
    every pair of multi-indices with a sum inside the box occurs once.
    """
    idx = np.indices(shape).reshape(len(shape), -1).T
    total = idx[:, None, :] + idx[None, :, :]
    ok = np.all(total < np.array(shape), axis=-1)
    left, right = np.nonzero(ok)
    target = np.ravel_multi_index(total[left, right].T, shape)
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[order], np.arange(idx.shape[0]))
    return left[order], right[order], starts


class Jet:
    """Truncated multivariate Taylor jet over an (N,) point batch.

    ``c`` has shape (N, o_1 + 1, ..., o_d + 1) with c[:, a] = d^a f / a! at
    each point.  Numbers and (N,) arrays act as constant jets.
    """

    __array_ufunc__ = None      # numpy operands defer to the reflected ops

    def __init__(self, c):
        self.c = c

    @classmethod
    def variables(cls, pts, box):
        """The d coordinate jets of an (N, d) batch, truncated to ``box``."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        shape = tuple(int(o) + 1 for o in box)
        out = []
        for k in range(pts.shape[1]):
            c = np.zeros((pts.shape[0],) + shape)
            c[(slice(None),) + (0,) * len(shape)] = pts[:, k]
            if shape[k] > 1:
                c[(slice(None),) + unit(len(shape), k)] = 1.0
            out.append(cls(c))
        return out

    @property
    def const(self):
        """The value coefficient c[:, 0, ..., 0]."""
        return self.c[(slice(None),) + (0,) * (self.c.ndim - 1)]

    def _shift(self, v):
        c = self.c.copy()
        c[(slice(None),) + (0,) * (c.ndim - 1)] += v
        return Jet(c)

    def _per_point(self, v):
        """A number or (N,) array, shaped to broadcast against ``c``."""
        return np.reshape(v, np.shape(v) + (1,) * (self.c.ndim - 1))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c)
        return self._shift(other)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * self._per_point(other))
        n, shape = self.c.shape[0], self.c.shape[1:]
        left, right, starts = _product_plan(shape)
        # an explicit width: -1 cannot be resolved for an empty batch
        a = self.c.reshape(n, math.prod(shape))
        b = other.c.reshape(n, math.prod(shape))
        prod = np.add.reduceat(a[:, left] * b[:, right], starts, axis=1)
        return Jet(prod.reshape(self.c.shape))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other ** -1
        return Jet(self.c / self._per_point(other))

    def __rtruediv__(self, other):
        return self ** -1 * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            return exp(p * log(self))
        if float(p) == int(p) and p >= 0:
            return functools.reduce(operator.mul, [self] * int(p), 1.0)
        return self._compose(functools.partial(_pow_series, float(p)))

    def __rpow__(self, base):
        return exp(self * math.log(base))

    def _compose(self, series):
        """f(self) from series(g0, K) = [f^(k)(g0) / k! for k <= K].

        h = self - g0 has no constant term, so h^k vanishes in the box for k
        beyond its total order K and Horner's rule in h is exact there.
        """
        g0 = self.const
        K = sum(self.c.shape[1:]) - (self.c.ndim - 1)
        coeffs = series(g0, K)
        h = self._shift(-g0)
        acc = h * coeffs[K] if K else Jet(np.zeros_like(self.c))
        for k in range(K - 1, 0, -1):
            acc = (acc + coeffs[k]) * h
        return acc + coeffs[0]

    def log(self):
        return self._compose(_log_series)

    def exp(self):
        return self._compose(_exp_series)

    def sqrt(self):
        return self ** 0.5

    def sin(self):
        return self._compose(functools.partial(_trig_series, 0))

    def cos(self):
        return self._compose(functools.partial(_trig_series, 1))


def _exp_series(g0, K):
    e = np.exp(g0)
    return [e / math.factorial(k) for k in range(K + 1)]


def _log_series(g0, K):
    return [np.log(g0)] + [(-1.0) ** (k + 1) / (k * g0 ** k)
                           for k in range(1, K + 1)]


def _pow_series(p, g0, K):
    out = [g0 ** p]
    for k in range(1, K + 1):
        out.append(out[-1] * ((p - k + 1) / k) / g0)
    return out


def _trig_series(phase, g0, K):
    """sin (phase 0) or cos (phase 1): the k-th derivative is the
    (k + phase)-th entry of the cycle sin, cos, -sin, -cos."""
    s, c = np.sin(g0), np.cos(g0)
    cycle = (s, c, -s, -c)
    return [cycle[(k + phase) % 4] / math.factorial(k) for k in range(K + 1)]


def _elementary(name):
    np_fn = getattr(np, name)

    def fn(v):
        return getattr(v, name)() if isinstance(v, Jet) else np_fn(v)
    fn.__name__ = name
    fn.__doc__ = f"{name} of a jet, or numpy's {name} of anything else."
    return fn


log, exp, sqrt, sin, cos = (_elementary(name) for name in
                            ("log", "exp", "sqrt", "sin", "cos"))

# the functions a sympy expression may use, under the names lambdify prints
JET_NAMESPACE = {"log": log, "exp": exp, "sqrt": sqrt, "sin": sin, "cos": cos}


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


def fd_step(orders):
    """Step of every finite-difference partial of the given multi-index.

    1e-4, widened 1, 1, 10, 100 times for total order 0, 1, 2 and 3 or more,
    to keep roundoff noise of the high-order stencils in check.
    """
    return 1e-4 * (1.0, 1.0, 10.0, 100.0)[min(sum(orders), 3)]


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


class JetScalarField:
    """Scalar field from a function of the d coordinates; partials are exact.

    ``func(x_1, ..., x_d)`` must accept (N,) arrays and jets alike, using
    only arithmetic and the elementary functions of this module.  A partial
    is one evaluation on the coordinate jets truncated to its multi-index.
    """

    def __init__(self, func, dim):
        self.func = func
        self.dim = int(dim)

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self.func(*pts.T)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (pts.shape[0],)).copy()

    def partial_value(self, orders, pts):
        orders = tuple(int(o) for o in orders)
        if not any(orders):
            return self.value(pts)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = self.func(*Jet.variables(pts, orders))
        if not isinstance(out, Jet):
            return np.zeros(pts.shape[0])
        scale = math.prod(math.factorial(o) for o in orders)
        return scale * out.c[(slice(None),) + orders]

    def swapped(self, n):
        """The field (t, s) -> -f(s, t), s being the first n coordinates of
        f and t the others: the potential of the Legendre dual."""
        return JetScalarField(lambda *x: -self.func(*x[-n:], *x[:-n]),
                              self.dim)


class SymbolicScalarField(JetScalarField):
    """Scalar field of a sympy expression, lambdified once into jets."""

    def __init__(self, expr, symbols):
        expr = sp.sympify(expr)
        bad = {type(f).__name__ for f in expr.atoms(sp.Function)} \
            - set(JET_NAMESPACE)
        if bad:
            raise ValueError(f"no jet rule for {sorted(bad)}")
        self.expr = expr
        self.symbols = tuple(symbols)
        super().__init__(sp.lambdify(self.symbols, expr,
                                     modules=[JET_NAMESPACE]),
                         len(self.symbols))


class NumericScalarField:
    """Scalar field from a plain callable; partials by finite differences."""

    def __init__(self, func, dim):
        self.func = func
        self.dim = dim

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.asarray(self.func(pts), dtype=float)

    def partial_value(self, orders, pts):
        if sum(orders) == 0:
            return self.value(pts)
        return fd_partial(self.value, pts, orders, fd_step(orders))


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


def hessian_block(field, orders, rows, cols, pts):
    """Batched (N, len(rows), len(cols)) table of d^(orders + e_r + e_c) of a
    scalar field over the axes r in ``rows`` and c in ``cols``.

    A diagonal block (``rows == cols``) is evaluated on and above its
    diagonal and mirrored, so it is exactly symmetric.
    """
    rows, cols = list(rows), list(cols)
    pts = np.atleast_2d(pts)
    out = np.empty((pts.shape[0], len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if rows == cols and j < i:
                out[:, i, j] = out[:, j, i]
            else:
                out[:, i, j] = field.partial_value(shifted(orders, r, c), pts)
    return out
