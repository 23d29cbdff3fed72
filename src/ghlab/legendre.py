"""Split Monge-Ampere solutions, partial Legendre transform, holonomy.

A split solution on R subset R^n x R^l is a potential K(s, t) with blocks

    V = K_ss  (n x n),   B = K_st  (n x l),   W = -K_tt  (l x l),

V and W positive definite and det V = det W.  The partial Legendre transform
y_i = K_{s_i}, y_p = t_p carries it to a convex potential Psi with

    Hess Psi = [[V^{-1}, -V^{-1} B], [-(V^{-1} B)^T, W + B^T V^{-1} B]],

whose determinant is det W / det V (Schur complement), hence 1 exactly when
the split equation holds.

Around a singular point the closed 1-form matrix

    beta^{iq} = dW^{pq}/ds_i dt_p - dV^{ij}/dt_q ds_j

has loop holonomy equal to minus the enclosed charge; monodromy of the
induced affine structure along an elementary four-chart loop is the unipotent
map y -> y + <dv, y> dw.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import sympy as sp

from . import GHLabError, NotPositive
from .fields import (
    NumericScalarField,
    SymbolicScalarField,
    block_table,
    shifted,
    unit,
)
from .ghcore import BlockSolution, ResidualReport, at_zero_orders
from .lattice import wall_complex


class LegendreError(GHLabError):
    pass


class SingularHessian(LegendreError):
    pass


class NotHarmonic(LegendreError):
    pass


class LoopHitsSingularity(LegendreError):
    pass


class SplitMASolution(BlockSolution):
    """Blocks (V, B, W) of a split potential, table- or potential-backed.

    W is real symmetric; B is zero when no table is given.
    """

    def __init__(self, n, l, V, W, B=None, potential=None, V_partial=None,
                 W_partial=None, domain=None, singular_points=None,
                 charges=None, wall_pair=None, fd_steps=1e-4, name=""):
        super().__init__(n, l, V, W, domain=domain, potential=potential,
                         V_partial=V_partial, W_partial=W_partial,
                         fd_steps=fd_steps, name=name)
        self._B = B
        self.singular_points = [np.asarray(p, dtype=float)
                                for p in (singular_points or [])]
        self.charges = [np.asarray(c, dtype=float) for c in (charges or [])]
        if self.singular_points and not self.charges:
            self.charges = [np.ones((self.n, self.l))
                            for _ in self.singular_points]
        self.wall_pair = wall_pair    # (fiber complex, base complex) or None

    @property
    def dim(self):
        return self.n + self.l

    @classmethod
    def from_potential(cls, K, n, l, symbols=None, domain=None, name="",
                       **kw):
        """Build the blocks from a potential: sympy expr or scalar field."""
        if symbols is not None:
            K = SymbolicScalarField(K, symbols)
        d = n + l

        def hessian_block(sign, rows, cols, r0, c0, symmetric):
            def partial(orders, pts):
                return block_table(pts, rows, cols, lambda i, j, x: sign * (
                    K.partial_value(shifted(orders, r0 + i, c0 + j), x)),
                    symmetric=symmetric)
            return partial

        V_partial = hessian_block(1.0, n, n, 0, 0, True)
        W_partial = hessian_block(-1.0, l, l, n, n, True)
        B = at_zero_orders(hessian_block(1.0, n, l, 0, n, False), d)
        return cls(n, l, at_zero_orders(V_partial, d),
                   at_zero_orders(W_partial, d), B=B, potential=K,
                   V_partial=V_partial, W_partial=W_partial, domain=domain,
                   name=name, **kw)

    def B(self, pts):
        if self._B is None:
            return np.zeros((np.atleast_2d(pts).shape[0], self.n, self.l))
        return np.asarray(self._B(np.atleast_2d(pts)), dtype=float)

    def gradient_s(self, pts):
        """(K_{s_1}, ..., K_{s_n}) - needs a potential."""
        if self.potential is None:
            raise LegendreError("no potential available for this solution")
        pts = np.atleast_2d(pts)
        out = np.empty((pts.shape[0], self.n))
        for i in range(self.n):
            out[:, i] = self.potential.partial_value(unit(self.dim, i), pts)
        return out

    def min_singular_distance(self, pts):
        if not self.singular_points:
            return math.inf
        pts = np.atleast_2d(pts)
        return min(float(np.min(np.linalg.norm(pts - p[None, :], axis=1)))
                   for p in self.singular_points)

    def min_segment_distance(self, a, b):
        """Distance from the segment [a, b] to the singular support."""
        if not self.singular_points:
            return math.inf
        a = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a
        dd = float(np.dot(d, d))
        best = math.inf
        for p in self.singular_points:
            t = 0.0 if dd == 0.0 else float(np.clip(np.dot(p - a, d) / dd,
                                                    0.0, 1.0))
            best = min(best, float(np.linalg.norm(a + t * d - p)))
        return best


# ---------------------------------------------------------------------------
# partial Legendre transform
# ---------------------------------------------------------------------------

def partial_legendre(sol, point, cond_limit=1e12):
    """New coordinates y and the Hessian of the transformed potential."""
    pt = np.atleast_2d(np.asarray(point, dtype=float))
    sol.domain.require(pt)
    if sol.min_singular_distance(pt) < 1e-9:
        raise SingularHessian("point on the singular support")
    V = sol.V(pt)[0]
    B = sol.B(pt)[0]
    W = sol.W(pt)[0]
    if np.linalg.cond(V) > cond_limit:
        raise SingularHessian("fiber block is numerically singular")
    y = np.concatenate([sol.gradient_s(pt)[0], pt[0, sol.n:]])
    Vi = np.linalg.inv(V)
    VB = Vi @ B
    top = np.hstack([Vi, -VB])
    bottom = np.hstack([-VB.T, W + B.T @ Vi @ B])
    return y, np.vstack([top, bottom])


def verify_classical_ma(sol, grid_pts, tolerance=1e-8):
    """Max |det Hess Psi - 1| over the grid."""
    pts = np.atleast_2d(np.asarray(grid_pts, dtype=float))
    worst, arg = 0.0, pts[0]
    for p in pts:
        _, H = partial_legendre(sol, p)
        r = abs(np.linalg.det(H) - 1.0)
        if r > worst:
            worst, arg = r, p
    return ResidualReport(
        check="classical-monge-ampere", grid=f"{pts.shape[0]} pts",
        max_residual=float(worst), argmax_point=list(map(float, arg)),
        step=0.0, tolerance=tolerance, passed=bool(worst <= tolerance))


def block_determinant_residual(A, B, C, D):
    """Relative residual of det [[A,B],[C,D]] = det A * det(D - C A^{-1} B)."""
    M = np.block([[A, B], [C, D]])
    lhs = np.linalg.det(M)
    rhs = np.linalg.det(A) * np.linalg.det(D - C @ np.linalg.inv(A) @ B)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def inverse_minor_residual(M, rows, cols):
    """Jacobi identity: det(M^{-1}[rows, cols]) * det M = +/- complementary minor.

    The sign is (-1)^(sum rows + sum cols); returns the relative residual.
    """
    M = np.asarray(M, dtype=float)
    k = M.shape[0]
    rows = sorted(rows)
    cols = sorted(cols)
    comp_rows = [i for i in range(k) if i not in cols]
    comp_cols = [j for j in range(k) if j not in rows]
    minv = np.linalg.inv(M)
    lhs = np.linalg.det(minv[np.ix_(rows, cols)]) * np.linalg.det(M)
    sign = (-1.0) ** (sum(rows) + sum(cols))
    rhs = sign * np.linalg.det(M[np.ix_(comp_rows, comp_cols)]) \
        if comp_rows else sign
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def dual_transform(sol):
    """Exchange the two variable groups: (s, t, K) -> (t, s, -K).

    The new fiber block is the old base block evaluated at the swapped point
    and vice versa; applying the transform twice reproduces the original
    second derivatives exactly.
    """
    n, l = sol.n, sol.l

    def swap(pts):
        pts = np.atleast_2d(pts)
        return np.hstack([pts[:, l:], pts[:, :l]])

    newV = lambda pts: sol.W(swap(pts))
    newW = lambda pts: sol.V(swap(pts))
    newB = None
    if sol._B is not None:
        newB = lambda pts: -np.transpose(sol.B(swap(pts)), (0, 2, 1))

    def swap_orders(orders):
        return tuple(orders[l:]) + tuple(orders[:l])

    newVp = None
    newWp = None
    if sol._W_partial is not None:
        newVp = lambda orders, pts: sol.W_partial(swap_orders(orders), swap(pts))
    if sol._V_partial is not None:
        newWp = lambda orders, pts: sol.V_partial(swap_orders(orders), swap(pts))

    potential = None
    if isinstance(sol.potential, SymbolicScalarField):
        syms = sol.potential.symbols
        potential = SymbolicScalarField(-sol.potential.expr,
                                        syms[n:] + syms[:n])
    elif sol.potential is not None:
        inner = sol.potential
        potential = NumericScalarField(
            lambda pts: -inner.value(swap(pts)), n + l,
            steps=getattr(inner, "steps", 1e-4))

    wall_pair = None
    if sol.wall_pair is not None:
        wall_pair = (sol.wall_pair[1], sol.wall_pair[0])
    return SplitMASolution(
        l, n, newV, newW, B=newB, potential=potential, V_partial=newVp,
        W_partial=newWp, domain=sol.domain,
        singular_points=[np.concatenate([p[n:], p[:n]])
                         for p in sol.singular_points],
        charges=[c.T for c in sol.charges], wall_pair=wall_pair,
        fd_steps=sol.fd_steps, name=f"dual({sol.name})" if sol.name else "")


# ---------------------------------------------------------------------------
# the singular 2D family
# ---------------------------------------------------------------------------

def singular_2d(h=1.0, domain_radius=1.0, pair=None, harmonic_tol=1e-8):
    """V = W = -(1/4 pi) log(s^2 + t^2) + h on the punctured disk.

    ``h`` is a constant, a sympy expression in two real symbols, or a
    callable on (N, 2) arrays; it is validated to be harmonic by finite
    differences, and V is required to stay positive on the annulus.
    """
    s_sym, t_sym = sp.symbols("s t", real=True)
    if isinstance(h, (int, float)):
        h_field = SymbolicScalarField(sp.Float(float(h)), (s_sym, t_sym))
    elif isinstance(h, sp.Expr):
        h_field = SymbolicScalarField(h, tuple(sorted(h.free_symbols,
                                                      key=str)) or (s_sym, t_sym))
        if len(h_field.symbols) == 1:
            h_field = SymbolicScalarField(h, (h_field.symbols[0], t_sym))
    elif callable(h):
        h_field = NumericScalarField(h, 2, steps=1e-4)
    else:
        raise TypeError("h must be a number, sympy expression or callable")

    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    radii = np.geomspace(0.05 * domain_radius, domain_radius, 8)
    R, A = np.meshgrid(radii, angles, indexing="ij")
    samples = np.stack([R.ravel() * np.cos(A.ravel()),
                        R.ravel() * np.sin(A.ravel())], axis=-1)
    lap = (h_field.partial_value((2, 0), samples)
           + h_field.partial_value((0, 2), samples))
    if np.max(np.abs(lap)) > harmonic_tol:
        raise NotHarmonic(f"FD Laplacian of h reaches {np.max(np.abs(lap)):.2e}")

    def radial_part(orders, pts):
        pts = np.atleast_2d(pts)
        s, t = pts[:, 0], pts[:, 1]
        r2 = s * s + t * t
        c = -1.0 / (4.0 * np.pi)
        table = {
            (0, 0): lambda: c * np.log(r2),
            (1, 0): lambda: c * 2.0 * s / r2,
            (0, 1): lambda: c * 2.0 * t / r2,
            (2, 0): lambda: c * 2.0 * (t * t - s * s) / r2 ** 2,
            (0, 2): lambda: c * 2.0 * (s * s - t * t) / r2 ** 2,
            (1, 1): lambda: c * (-4.0) * s * t / r2 ** 2,
        }
        if tuple(orders) not in table:
            raise ValueError(f"radial partial {orders} not implemented")
        return table[tuple(orders)]()

    def value_partial(orders, pts):
        return radial_part(orders, pts) + h_field.partial_value(orders, pts)

    vals = value_partial((0, 0), samples)
    if np.min(vals) <= 0.0:
        raise NotPositive(
            f"V reaches {np.min(vals):.4g} <= 0 on the annulus; shift h")

    def V(pts):
        return value_partial((0, 0), pts)[:, None, None]

    def V_partial(orders, pts):
        return value_partial(tuple(orders), pts)[:, None, None]

    wall_pair = None
    if pair is not None:
        wall_pair = (wall_complex(pair.tau, basis=pair.fiber_basis),
                     wall_complex(pair.sigma, basis=pair.base_basis))
    return SplitMASolution(
        1, 1, V, V, B=None, V_partial=V_partial, W_partial=V_partial,
        singular_points=[np.zeros(2)], charges=[np.ones((1, 1))],
        wall_pair=wall_pair, name="singular-2d")


# ---------------------------------------------------------------------------
# monodromy and holonomy
# ---------------------------------------------------------------------------

def monodromy_generator(pair, i1, i2, j1, j2):
    """Unipotent map y -> y + <v_{i2} - v_{i1}, y> (w_{j2} - w_{j1})."""
    dv = np.array(pair.sigma.vertices[i2], dtype=np.int64) \
        - np.array(pair.sigma.vertices[i1], dtype=np.int64)
    dw = np.array(pair.tau.vertices[j2], dtype=np.int64) \
        - np.array(pair.tau.vertices[j1], dtype=np.int64)
    r = dv.size
    return np.eye(r, dtype=np.int64) + np.outer(dw, dv)


def is_unipotent(M):
    """Exact check that (M - I)^2 = 0 in integer arithmetic."""
    N = np.asarray(M, dtype=np.int64) - np.eye(M.shape[0], dtype=np.int64)
    return not np.any(N @ N)


@dataclass
class AffineChartAtlas:
    """Polyhedral charts of both affine structures plus loop monodromies."""
    pair: object
    v_charts: list
    w_charts: list
    generators: dict = field(default_factory=dict)

    def generator(self, i1, j1, i2, j2):
        return self.generators[(i1, j1, i2, j2)]


def atlas(pair):
    base = wall_complex(pair.sigma, basis=pair.base_basis) if pair.l else None
    fiber = wall_complex(pair.tau, basis=pair.fiber_basis) if pair.n else None

    def cones(simplex, complex_):
        out = []
        k = len(simplex.vertices)
        for i in range(k):
            ineqs = []
            if complex_ is not None:
                for w in complex_.walls:
                    if w.pair[0] == i:
                        ineqs.append(tuple(w.equality))
                    elif w.pair[1] == i:
                        ineqs.append(tuple(-c for c in w.equality))
            out.append({"index": i, "cone_ineqs": ineqs})
        return out

    gens = {}
    nv = len(pair.sigma.vertices)
    nw = len(pair.tau.vertices)
    for i1, i2 in itertools.product(range(nv), repeat=2):
        for j1, j2 in itertools.product(range(nw), repeat=2):
            gens[(i1, j1, i2, j2)] = monodromy_generator(pair, i1, i2, j1, j2)
    return AffineChartAtlas(pair=pair, v_charts=cones(pair.sigma, base),
                            w_charts=cones(pair.tau, fiber), generators=gens)


def circle_loop(center=(0.0, 0.0), radius=1.0, segments=64,
                counterclockwise=True):
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    if not counterclockwise:
        ang = ang[::-1]
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=-1)


def winding_numbers(loop, points, tol=1e-9):
    """Winding of a closed polygon about each point, by angle summation."""
    loop = np.atleast_2d(np.asarray(loop, dtype=float))
    out = []
    for p in points:
        rel = loop - np.asarray(p, dtype=float)[None, :]
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
        w = float(np.sum(dang) / (2.0 * np.pi))
        if abs(w - round(w)) > tol:
            raise LoopHitsSingularity(
                f"winding {w} about {p} is not an integer")
        out.append(int(round(w)))
    return out


@dataclass
class HolonomyReport:
    loop: np.ndarray
    windings: list
    holonomy: np.ndarray        # (n, l) loop integral of beta
    expected: np.ndarray        # -(sum of winding * charge)
    max_abs_error: float

    def to_json(self):
        return json.dumps({
            "loop": [list(map(float, p)) for p in self.loop],
            "windings": self.windings,
            "holonomyMatrix": self.holonomy.tolist(),
            "expectedMatrix": self.expected.tolist(),
            "maxAbsError": self.max_abs_error}, sort_keys=True)


def beta_holonomy(sol, loop, nodes=12, guard=1e-6):
    """Loop integral of beta^{iq} = dW^{pq}/ds_i dt_p - dV^{ij}/dt_q ds_j.

    The loop is a closed polygon in R^n x R^l (rows are vertices); each
    segment is integrated with a Gauss-Legendre rule.  Returns the holonomy
    matrix together with the winding-number bookkeeping for n = l = 1.
    """
    loop = np.atleast_2d(np.asarray(loop, dtype=float))
    n, l, d = sol.n, sol.l, sol.dim
    if loop.shape[1] != d:
        raise ValueError("loop vertices have wrong dimension")
    if sol.min_singular_distance(loop) < guard:
        raise LoopHitsSingularity("loop passes through the singular support")
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    hol = np.zeros((n, l))
    segments = zip(loop, np.roll(loop, -1, axis=0))
    for a, b in segments:
        direction = b - a
        ts = 0.5 * (gl_x + 1.0)
        pts = a[None, :] + ts[:, None] * direction[None, :]
        if sol.min_segment_distance(a, b) < guard:
            raise LoopHitsSingularity("loop passes through the singular support")
        w = 0.5 * gl_w   # d t in [0,1]
        dWs = [sol.W_partial(unit(d, i), pts) for i in range(n)]
        dVt = [sol.V_partial(unit(d, n + q), pts) for q in range(l)]
        for i in range(n):
            for q in range(l):
                integrand = np.zeros(nodes)
                for p in range(l):
                    integrand += dWs[i][:, p, q] * direction[n + p]
                for j in range(n):
                    integrand -= dVt[q][:, i, j] * direction[j]
                hol[i, q] += float(np.dot(w, integrand))
    windings = []
    expected = np.zeros((n, l))
    if n == 1 and l == 1 and sol.singular_points:
        windings = winding_numbers(loop, sol.singular_points)
        for wnum, charge in zip(windings, sol.charges):
            expected += -wnum * charge
    err = float(np.max(np.abs(hol - expected))) if windings else float("nan")
    return HolonomyReport(loop=loop, windings=windings, holonomy=hol,
                          expected=expected, max_abs_error=err)
