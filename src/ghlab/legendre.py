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

import math
from dataclasses import dataclass

import numpy as np

from . import GHLabError, NotPositive
from .fields import (
    JetScalarField,
    SymbolicScalarField,
    _leggauss,
    cos,
    exp,
    hessian_block,
    log,
    unit,
)
from .ghcore import BlockSolution, ResidualReport


class LegendreError(GHLabError):
    pass


class SingularHessian(LegendreError):
    pass


class LoopHitsSingularity(LegendreError):
    pass


class SplitMASolution(BlockSolution):
    """Blocks (V, B, W) of a split potential: a ``BlockSolution``.

    W is real symmetric; B is a table, zero when none is given.  Each of the
    ``singular_points`` carries unit charge.
    """

    def __init__(self, n, l, V, W, B=None, potential=None,
                 singular_points=None):
        super().__init__(n, l, V, W, potential=potential)
        self._B = B
        self.singular_points = [np.asarray(p, dtype=float)
                                for p in (singular_points or [])]

    @property
    def dim(self):
        return self.n + self.l

    @classmethod
    def from_potential(cls, K, n, l, symbols=None):
        """Build the blocks from a potential: a scalar field, or a sympy
        expression in ``symbols``.  They are slices of its real Hessian H:
        V = H_ss, B = H_st and W = -H_tt."""
        if symbols is not None:
            K = SymbolicScalarField(K, symbols)
        d = n + l
        s, t = range(n), range(n, d)

        def V(orders, pts):
            return hessian_block(K, orders, s, s, pts)

        def W(orders, pts):
            return -hessian_block(K, orders, t, t, pts)

        def B(pts):
            return hessian_block(K, (0,) * d, s, t, pts)

        return cls(n, l, V, W, B=B, potential=K)

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


def model_potential(family, b=0.5):
    """A split potential K(s, t) with det V = det W, as a jet field.

    ``family`` is "quadratic" (s^2/2 - t^2/2), "cross" (that plus b s t) or
    "harmonic" (e^s cos t).
    """
    families = {
        "quadratic": lambda s, t: s ** 2 / 2 - t ** 2 / 2,
        "cross": lambda s, t: s ** 2 / 2 + b * s * t - t ** 2 / 2,
        "harmonic": lambda s, t: exp(s) * cos(t),
    }
    return JetScalarField(families[family], 2)


# ---------------------------------------------------------------------------
# partial Legendre transform
# ---------------------------------------------------------------------------

def partial_legendre(sol, pts):
    """New coordinates y and Hess Psi over an (N, n + l) batch."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if sol.min_singular_distance(pts) < 1e-9:
        raise SingularHessian("point on the singular support")
    V, B, W = sol.V(pts), sol.B(pts), sol.W(pts)
    if np.max(np.linalg.cond(V)) > 1e12:
        raise SingularHessian("fiber block is numerically singular")
    y = np.concatenate([sol.gradient_s(pts), pts[:, sol.n:]], axis=1)
    Vi = np.linalg.inv(V)
    VB = Vi @ B
    BT = np.swapaxes(B, 1, 2)
    top = np.concatenate([Vi, -VB], axis=2)
    bottom = np.concatenate([-np.swapaxes(VB, 1, 2), W + BT @ Vi @ B], axis=2)
    return y, np.concatenate([top, bottom], axis=1)


def verify_classical_ma(sol, grid_pts, tolerance=1e-8):
    """Max |det Hess Psi - 1| over the grid."""
    pts = np.atleast_2d(np.asarray(grid_pts, dtype=float))
    _, H = partial_legendre(sol, pts)
    r = np.abs(np.linalg.det(H) - 1.0)
    k = int(np.argmax(r))
    return ResidualReport(
        max_residual=float(r[k]), argmax_point=list(map(float, pts[k])),
        passed=bool(r[k] <= tolerance))


def block_determinant_residual(A, B, C, D):
    """Relative residual of det [[A,B],[C,D]] = det A * det(D - C A^{-1} B),
    one per entry of a stack of blocks (leading axes)."""
    M = np.block([[A, B], [C, D]])
    lhs = np.linalg.det(M)
    rhs = np.linalg.det(A) * np.linalg.det(D - C @ np.linalg.inv(A) @ B)
    return abs(lhs - rhs) / np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-30)


# ---------------------------------------------------------------------------
# the singular 2D family
# ---------------------------------------------------------------------------

def singular_2d(h=1.0):
    """V = W = -(1/4 pi) log(s^2 + t^2) + h on the punctured unit disk.

    ``h`` is a number; V is required to stay positive on sample points of
    the annulus 0.05 <= r <= 1.
    """
    radial = JetScalarField(
        lambda s, t: -1.0 / (4.0 * np.pi) * log(s * s + t * t), 2)

    def value_partial(orders, pts):
        # the constant h adds to the value only; 0.0 to every partial
        return (radial.partial_value(orders, pts)
                + (0.0 if any(orders) else float(h)))

    angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    R, A = np.meshgrid(np.geomspace(0.05, 1.0, 8), angles, indexing="ij")
    samples = np.stack([R.ravel() * np.cos(A.ravel()),
                        R.ravel() * np.sin(A.ravel())], axis=-1)
    vals = value_partial((0, 0), samples)
    if np.min(vals) <= 0.0:
        raise NotPositive(
            f"V reaches {np.min(vals):.4g} <= 0 on the annulus; shift h")

    def V(orders, pts):
        return value_partial(tuple(orders), pts)[:, None, None]

    return SplitMASolution(1, 1, V, V, singular_points=[np.zeros(2)])


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


def circle_loop(center=(0.0, 0.0), radius=1.0, segments=64):
    """A counterclockwise polygon of ``segments`` vertices on a circle."""
    ang = np.linspace(0.0, 2.0 * np.pi, segments, endpoint=False)
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=-1)


def winding_numbers(loop, points):
    """Winding of a closed polygon about each point, by angle summation."""
    loop = np.atleast_2d(np.asarray(loop, dtype=float))
    out = []
    for p in points:
        rel = loop - np.asarray(p, dtype=float)[None, :]
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        dang = np.diff(np.concatenate([ang, ang[:1]]))
        dang = (dang + np.pi) % (2.0 * np.pi) - np.pi
        w = float(np.sum(dang) / (2.0 * np.pi))
        if abs(w - round(w)) > 1e-9:
            raise LoopHitsSingularity(
                f"winding {w} about {p} is not an integer")
        out.append(int(round(w)))
    return out


@dataclass
class HolonomyReport:
    loop: np.ndarray
    windings: list
    holonomy: np.ndarray        # (n, l) loop integral of beta
    expected: np.ndarray        # -(sum of windings), unit charges
    max_abs_error: float


def beta_holonomy(sol, loop):
    """Loop integral of beta^{iq} = dW^{pq}/ds_i dt_p - dV^{ij}/dt_q ds_j.

    The loop is a closed polygon in R^n x R^l (rows are vertices); each
    segment is integrated with a 12-point Gauss-Legendre rule.  Returns the
    holonomy matrix with the winding-number bookkeeping for n = l = 1.
    """
    loop = np.atleast_2d(np.asarray(loop, dtype=float))
    n, l, d = sol.n, sol.l, sol.dim
    if loop.shape[1] != d:
        raise ValueError("loop vertices have wrong dimension")
    ends = np.roll(loop, -1, axis=0)
    if any(sol.min_segment_distance(a, b) < 1e-6 for a, b in zip(loop, ends)):
        raise LoopHitsSingularity("loop passes through the singular support")
    gl_x, gl_w = _leggauss(12)
    w = 0.5 * gl_w   # d t in [0,1]
    # the Gauss nodes of every segment in one batch
    directions = ends - loop
    ts = 0.5 * (gl_x + 1.0)
    pts = (loop[:, None] + ts[:, None] * directions[:, None]).reshape(-1, d)
    shape = (len(loop), gl_x.size)
    dWs = [sol.W_partial(unit(d, i), pts).reshape(shape + (l, l))
           for i in range(n)]
    dVt = [sol.V_partial(unit(d, n + q), pts).reshape(shape + (n, n))
           for q in range(l)]
    hol = np.zeros((n, l))
    for i in range(n):
        for q in range(l):
            integrand = np.zeros(shape)
            for p in range(l):
                integrand += dWs[i][..., p, q] * directions[:, None, n + p]
            for j in range(n):
                integrand -= dVt[q][..., i, j] * directions[:, None, j]
            # segment by segment, in loop order
            for row in integrand:
                hol[i, q] += float(np.dot(w, row))
    windings = []
    expected = np.zeros((n, l))
    if n == 1 and l == 1 and sol.singular_points:
        windings = winding_numbers(loop, sol.singular_points)
        expected -= sum(windings)
    err = float(np.max(np.abs(hol - expected))) if windings else float("nan")
    return HolonomyReport(loop=loop, windings=windings, holonomy=hol,
                          expected=expected, max_abs_error=err)
