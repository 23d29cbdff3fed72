"""Scalar fields with exact (Taylor-jet) or finite-difference partials.

Everything is vectorized over a leading point axis: a point batch is an
array of shape (N, d) of real coordinates, and field values have shape
(N, ...).

Exact partials come from truncated Taylor jets.  A ``Jet`` holds the
coefficients c[a] = d^a f / a! of a function over the point batch, for every
multi-index a in a box a <= o; the box is closed under products, since the
a-coefficient of a product needs only the b <= a of its factors.  The
coefficients are stored coefficient-major, as one (N,) row per multi-index,
so a product gathers and sums whole rows and an (N,) array broadcasts
against a jet as it is.  Each coefficient of a product sums its L pair
products t_0, ..., t_{L-1} (the first factor's multi-index rising) as
t_0 + pairwise(t_1, ..., t_{L-1}), numpy's pairwise summation: the order
of ``np.add.reduceat`` along the coefficient axis.  Every golden bit of a
potential-backed result rests on that order, so it is a contract of the
product, which keeps it while adding whole rows (``_product_plan``).
Jets support +, -, *, / and ``**``, and ``log``,
``exp``, ``sqrt``, ``sin`` and ``cos`` by univariate Taylor composition
(Horner's rule in h = g - g(x0)).
A ``JetScalarField`` evaluates a plain Python function of the coordinates
once on the jets of the box of the requested multi-index and reads that
partial off the top coefficient; a sympy expression becomes such a function
through one ``lambdify`` into the jet namespace.  ``hessian_block`` tables
the mixed second partials of such a field over two groups of axes, which is
all a block solution needs of its potential.

Finite differences are central with one Richardson level, at the one fixed
step ``fd_step`` of each multi-index.  ``fd_partial`` stacks the shifted
copies of every stencil point of both grids, for one multi-index or several,
and evaluates the function once on the stack, in slices of at most
``FD_SLICE_ROWS`` rows.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np


class _LazySympy:
    """sympy, imported on first use: only sympy input needs it."""

    def __getattr__(self, name):
        return getattr(__import__("sympy"), name)


# a module-level name rather than a local import: perfbench/tracer.py counts
# the symbolic builds by wrapping sp.lambdify through it
sp = _LazySympy()


# ---------------------------------------------------------------------------
# truncated Taylor jets
# ---------------------------------------------------------------------------

def _pairwise_slots(n):
    """numpy's pairwise sum of n >= 8 terms as moves between slots.

    Returns (order, steps): with term order[s] in slot s, the moves
    slot[dst:dst + k] += slot[src:src + k] for (dst, src, k) in steps leave
    in slot 0 the sum numpy's pairwise summation gives: up to 128 terms,
    eight running sums r0..r7 over the blocks of 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    order; above 128, the sum of the two halves, split at a multiple of 8.
    (Below 8 terms numpy sums in order; ``_product_plan`` does that part.)
    Each block of 8 is laid out in bit-reversed order, so that the pairs of
    every combining level are two contiguous runs of slots.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        low, low_steps = _pairwise_slots(half)
        high, high_steps = _pairwise_slots(n - half)
        return (low + [half + i for i in high],
                low_steps + [(d + half, s + half, k) for d, s, k in high_steps]
                + [(0, half, 1)])
    full = n - n % 8
    order = [b + j for b in range(0, full, 8)
             for j in (0, 4, 2, 6, 1, 5, 3, 7)] + list(range(full, n))
    steps = [(0, b, 8) for b in range(8, full, 8)] \
        + [(0, 4, 4), (0, 2, 2), (0, 1, 1)] \
        + [(0, s, 1) for s in range(full, n)]
    return order, steps


@functools.lru_cache(maxsize=None)
def _product_plan(shape):
    """Row plan of the box product over a flattened coefficient box.

    Coefficient k of a product sums the pair products a[i] * b[j] over the
    L pairs of multi-indices with i + j = k, i ascending: t_0, ..., t_{L-1}.
    The sum is t_0 + pairwise(t_1, ..., t_{L-1}) in numpy's pairwise
    summation (``_pairwise_slots``), the order in which ``np.add.reduceat``
    sums a segment along axis 0.  The golden bits of the potential route
    rest on this order, so the product keeps it exactly.

    Returns (left, right, steps, inv).  The rows t = a[left] * b[right]
    hold, in this order: t_0 of every coefficient, by rising L; for p = 2
    to 7, t_p of every coefficient with p < L <= 8, which are the last of
    those with 1 < L <= 8; t_1 of those; and for each L > 8, the t_1 to
    t_{L-1} of its g coefficients in the slots of ``_pairwise_slots``, g
    rows a slot.  The moves t[dst:dst + k] += t[src:src + k] for
    (dst, src, k) in steps leave every coefficient in its t_0 row, and
    t[inv] is the product.  Each move adds whole rows, and their number is
    set by the box alone: up to 8 terms, the running sums of all the
    coefficients take one move per term.
    """
    idx = np.indices(shape).reshape(len(shape), -1).T
    total = idx[:, None, :] + idx[None, :, :]
    ok = np.all(total < np.array(shape), axis=-1)
    left, right = np.nonzero(ok)
    target = np.ravel_multi_index(total[left, right].T, shape)
    order = np.argsort(target, kind="stable")
    left, right = left[order], right[order]
    starts = np.searchsorted(target[order], np.arange(idx.shape[0]))
    length = np.diff(starts, append=len(left))
    rank = np.argsort(length, kind="stable")
    short = rank[length[rank] <= 8]
    # up to 8 terms a sum runs in order, in the t_1 row of its coefficient;
    # the coefficients with L > p are the last of the short ones
    runs = [short[length[short] > p] for p in range(1, 8)]
    summed = len(runs[0])
    first = len(rank) + sum(len(run) for run in runs[1:])
    rows, steps, at = [starts[rank]], [], len(rank)
    for p, run in enumerate(runs[1:], 2):
        rows.append(starts[run] + p)
        steps.append((first + summed - len(run), at, len(run)))
        at += len(run)
    rows.append(starts[runs[0]] + 1)
    finals = [[len(short) - summed, first, summed]]
    at, head = first + summed, len(short)
    # not np.unique: without return_inverse, numpy 2 imports numpy.ma there
    for L in sorted(set(length[length > 8].tolist())):
        g = int(np.count_nonzero(length == L))
        slots, moves = _pairwise_slots(L - 1)
        rows.append((starts[rank[head:head + g]]
                     + 1 + np.array(slots)[:, None]).ravel())
        steps += [(at + d * g, at + s * g, k * g) for d, s, k in moves]
        if head == len(short):
            # the first group's sums follow the t_1 rows, and its t_0 rows
            # the short ones': one move adds t_0 to both
            finals[0][2] += g
        else:
            finals.append([head, at, g])
        at += (L - 1) * g
        head += g
    steps += [tuple(f) for f in finals]
    rows = np.concatenate(rows)
    return (left[rows], right[rows], tuple(m for m in steps if m[2]),
            np.argsort(rank))


class Jet:
    """Truncated multivariate Taylor jet over an (N,) point batch.

    ``c`` has shape (o_1 + 1, ..., o_d + 1, N), coefficient-major, with
    c[a] = d^a f / a! at each point.  Numbers and (N,) arrays act as
    constant jets and broadcast against ``c`` as they are.
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
            c = np.zeros(shape + (pts.shape[0],))
            c[(0,) * len(shape)] = pts[:, k]
            if shape[k] > 1:
                c[unit(len(shape), k)] = 1.0
            out.append(cls(c))
        return out

    @property
    def const(self):
        """The value coefficient c[0, ..., 0]."""
        return self.c[(0,) * (self.c.ndim - 1)]

    def _shift(self, v):
        c = self.c.copy()
        c[(0,) * (c.ndim - 1)] += v
        return Jet(c)

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
            return Jet(self.c * other)
        shape, n = self.c.shape[:-1], self.c.shape[-1]
        left, right, steps, inv = _product_plan(shape)
        # an explicit width: -1 cannot be resolved for an empty batch
        a = self.c.reshape(len(inv), n)
        b = other.c.reshape(len(inv), n)
        t = a.take(left, axis=0) * b.take(right, axis=0)
        for dst, src, k in steps:
            acc = t[dst:dst + k]
            acc += t[src:src + k]
        return Jet(t.take(inv, axis=0).reshape(self.c.shape))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other ** -1
        return Jet(self.c / other)

    def __rtruediv__(self, other):
        return self ** -1 * other

    def __pow__(self, p):
        if isinstance(p, Jet):
            return exp(p * log(self))
        if float(p) == int(p) and p >= 0:
            if not p:
                return 1.0
            return functools.reduce(operator.mul, [self] * (int(p) - 1), self)
        return self._compose(functools.partial(_pow_series, float(p)))

    def __rpow__(self, base):
        return exp(self * math.log(base))

    def _compose(self, series):
        """f(self) from series(g0, K) = [f^(k)(g0) / k! for k <= K].

        h = self - g0 has no constant term, so h^k vanishes in the box for k
        beyond its total order K and Horner's rule in h is exact there.
        """
        g0 = self.const
        K = sum(self.c.shape[:-1]) - (self.c.ndim - 1)
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


# the stacked stencil copies of ``fd_partial`` are evaluated in consecutive
# slices of at most this many rows, which bounds the memory of one f call
FD_SLICE_ROWS = 4096


def fd_partial(f, pts, orders, steps, return_err=False):
    """Mixed central-difference partial of f at a batch of points.

    ``orders`` is a multi-index over the coordinate axes, or a list of them
    (then the result is a list, one entry per multi-index); ``steps`` are
    the per-axis step sizes.  The O(h^2) estimate is Richardson-extrapolated
    once; ``return_err`` additionally returns the absolute disagreement of
    the two grids (an error indicator).

    The shifted copies of every stencil point of both grids, over all the
    multi-indices, are stacked and f is evaluated once on the stack, in
    slices of at most ``FD_SLICE_ROWS`` rows; f must act row by row.  Each
    estimate then sums its rows of the result in stencil order.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    several = np.ndim(orders) == 2
    multis = [tuple(int(o) for o in m) for m in (orders if several
                                                  else [orders])]
    d = pts.shape[1]
    if any(len(m) != d for m in multis):
        raise ValueError("orders length must match point dimension")
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (d,))

    # the coefficients of each multi-index's one or two grids, and the
    # shifts (axis, offset) of the point copies that they weigh, in stencil
    # order; the copies are stacked in that order
    plans, shifts = [], []
    for m in multis:
        grids = []
        for scale in (1.0, 0.5) if sum(m) else (1.0,):
            sc = steps * scale
            stencil = _tensor_stencil(m, sc)
            shifts += [[(k, o * sc[k]) for k, o in enumerate(off) if o]
                       for off, _ in stencil]
            grids.append([co for _, co in stencil])
        plans.append(grids)
    n = pts.shape[0]
    stack = np.tile(pts, (len(shifts), 1))
    for b, shift in enumerate(shifts):
        for k, delta in shift:
            stack[b * n:(b + 1) * n, k] += delta
    vals = None
    # one slice at least, so that an empty batch still has f's shape
    for i in range(0, max(len(stack), 1), FD_SLICE_ROWS):
        part = np.asarray(f(stack[i:i + FD_SLICE_ROWS]))
        if vals is None:
            vals = np.empty((len(stack),) + part.shape[1:], part.dtype)
        vals[i:i + len(part)] = part

    row, out = 0, []
    for grids in plans:
        estimates = []
        for coeffs in grids:
            total = None
            for co in coeffs:
                val = vals[row:row + n]
                row += n
                total = co * val if total is None else total + co * val
            estimates.append(total)
        if len(estimates) == 1:
            coarse = estimates[0]
            out.append((coarse, np.zeros_like(np.abs(coarse)))
                       if return_err else coarse)
        else:
            coarse, fine = estimates
            rich = (4.0 * fine - coarse) / 3.0
            out.append((rich, np.abs(fine - coarse)) if return_err else rich)
    return out if several else out[0]


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
        return scale * out.c[orders]


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
