"""Generalized Gibbons-Hawking pipeline: potential -> (V, W, A, F) -> checks.

Coordinates and frames
----------------------
A base point is the real vector (u_1..u_n, x_1..x_l, y_1..y_l) with
eta_p = x_p + i y_p.  From a potential Phi:

    V^{ij} = d^2 Phi / du_i du_j              (real symmetric, fiber block)
    W^{pq} = -4 d^2 Phi / d eta_p d etabar_q  (hermitian, base block)
    A_j    = d theta_j + i (Phi_{u_j eta_p} d eta_p
                            - Phi_{u_j etabar_q} d etabar_q)
    F_j    = i ( (1/2) dW^{pq}/du_j  d eta_p ^ d etabar_q
               + dV^{ij}/d eta_p    du_i ^ d eta_p
               - dV^{ij}/d etabar_q du_i ^ d etabar_q )

Each block is a slice of the real Hessian H of the potential (or, for a
partial of a block, of the same partial of the potential), with
d/d eta = (d/dx - i d/dy)/2:

    V^{ij}  = H_{u_i u_j}
    W^{pq}  = -(H_{x_p x_q} + H_{y_p y_q} + i (H_{x_p y_q} - H_{y_p x_q}))
    A_{jp}  = (H_{u_j y_p} + i H_{u_j x_p}) / 2     (d eta_p coefficient)

The verifiers work on the real coordinate frame (du, dx, dy): every 2-form
(the F_j, the Kahler form) is an (N, m, nc, nc) float array, antisymmetric
in its last two axes, with nc = n + 2l coordinates.  Exterior derivatives
and flux integrals are taken there by central finite differences with one
Richardson level and by quadrature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import GHLabError
from .fields import fd_partial, fd_step, hessian_block, unit


class GHError(GHLabError):
    pass


class DomainViolation(GHError):
    pass


class SphereHitsDiscriminant(GHError):
    pass


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Domain:
    def contains(self, pts):
        raise NotImplementedError

    def require(self, pts):
        pts = np.atleast_2d(pts)
        ok = self.contains(pts)
        if not np.all(ok):
            bad = pts[~np.asarray(ok)][0]
            raise DomainViolation(f"point {bad} outside domain {self}")

    def __and__(self, other):
        return _Intersection(self, other)


class _Intersection(Domain):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def contains(self, pts):
        return np.logical_and(self.a.contains(pts), self.b.contains(pts))

    def __repr__(self):
        return f"({self.a} & {self.b})"


class WholeSpace(Domain):
    def contains(self, pts):
        return np.ones(np.atleast_2d(pts).shape[0], dtype=bool)

    def __repr__(self):
        return "WholeSpace()"


class RadialDomain(Domain):
    """rmin <= |pts[:, axes]| <= rmax."""

    def __init__(self, rmin, rmax, axes=None):
        self.rmin, self.rmax, self.axes = float(rmin), float(rmax), axes

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        cols = pts if self.axes is None else pts[:, list(self.axes)]
        r = np.linalg.norm(cols, axis=1)
        return (r >= self.rmin) & (r <= self.rmax)

    def __repr__(self):
        return f"RadialDomain({self.rmin}, {self.rmax}, axes={self.axes})"


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

class BlockSolution:
    """Batched block tables V (n x n) and W (l x l) over a base domain.

    ``V``/``W`` are callables pts -> (N, n, n) / (N, l, l).  The partial
    providers ``V_partial``/``W_partial`` (orders, pts) -> table are optional
    closed forms; without one, partials are finite differences of the table
    at the fixed ``fd_step``.  Subclasses set the dtype of W.
    """

    w_dtype = float

    def __init__(self, n, l, V, W, domain=None, potential=None,
                 V_partial=None, W_partial=None):
        self.n, self.l = int(n), int(l)
        self._V, self._W = V, W
        self.domain = domain if domain is not None else WholeSpace()
        self.potential = potential
        self._V_partial = V_partial
        self._W_partial = W_partial

    def V(self, pts):
        return np.asarray(self._V(np.atleast_2d(pts)), dtype=float)

    def W(self, pts):
        pts = np.atleast_2d(pts)
        if self.l == 0:
            return np.ones((pts.shape[0], 0, 0), dtype=self.w_dtype)
        return np.asarray(self._W(pts), dtype=self.w_dtype)

    def _partial(self, provider, table, orders, pts):
        if provider is not None:
            return provider(orders, pts)
        return fd_partial(table, pts, orders, fd_step(orders))

    def V_partial(self, orders, pts):
        return self._partial(self._V_partial, self.V, orders, pts)

    def W_partial(self, orders, pts):
        return self._partial(self._W_partial, self.W, orders, pts)


def at_zero_orders(partial, ncoords):
    """The table pts -> partial((0, ..., 0), pts) of a partial provider."""
    zero = (0,) * ncoords
    return lambda pts: partial(zero, pts)


class GHSolution(BlockSolution):
    """Evaluator bundle (V, W, connection, curvature) over a base domain.

    W is hermitian.  ``connection`` gives the d eta_p coefficient of each A_j
    (the d etabar coefficient is its conjugate, forced by reality).
    """

    w_dtype = complex

    def __init__(self, n, l, V, W, domain=None, potential=None,
                 connection=None, V_partial=None, W_partial=None,
                 discriminant=None):
        super().__init__(n, l, V, W, domain=domain, potential=potential,
                         V_partial=V_partial, W_partial=W_partial)
        self._connection = connection
        self.discriminant = discriminant

    @property
    def ncoords(self):
        return self.n + 2 * self.l

    def connection(self, pts):
        if self._connection is None:
            return None
        return np.asarray(self._connection(np.atleast_2d(pts)), dtype=complex)

    @classmethod
    def from_potential(cls, K, n, l, domain=None, discriminant=None):
        """Build the blocks from a real potential on the (u, x, y) chart, a
        scalar field of dimension n + 2l (for sympy input, a
        ``fields.SymbolicScalarField``).  They are slices of its real
        Hessian (see the module docstring)."""
        nc = n + 2 * l
        if K.dim != nc:
            raise ValueError("scalar field dimension does not match (n, l)")
        u, x, y = range(n), range(n, n + l), range(n + l, nc)

        def H(orders, rows, cols, pts):
            return hessian_block(K, orders, rows, cols, pts)

        def V_partial(orders, pts):
            return H(orders, u, u, pts)

        def W_partial(orders, pts):
            W = -(H(orders, x, x, pts) + H(orders, y, y, pts)).astype(complex)
            if l > 1:
                # H_{y_p x_q} = H_{x_q y_p}; the term vanishes for p = q
                xy = H(orders, x, y, pts)
                W -= 1j * (xy - np.swapaxes(xy, 1, 2))
            return W

        def connection_partial(orders, pts):
            return 0.5 * (H(orders, u, y, pts) + 1j * H(orders, u, x, pts))

        return cls(n, l, at_zero_orders(V_partial, nc),
                   at_zero_orders(W_partial, nc), domain=domain, potential=K,
                   connection=at_zero_orders(connection_partial, nc)
                   if l else None,
                   V_partial=V_partial, W_partial=W_partial,
                   discriminant=discriminant)


# ---------------------------------------------------------------------------
# real-frame 2-forms: (N, m, nc, nc) arrays, antisymmetric in the last two
# axes, over the coordinates (u, x, y)
# ---------------------------------------------------------------------------

def _add_base_block(upper, c, n, l):
    """Add sum_{p,q} c_pq d eta_p ^ d etabar_q, c of shape (N, m, l, l).

    d eta_p ^ d etabar_q = dx_p^dx_q + dy_p^dy_q - i (dx_p^dy_q + dx_q^dy_p),
    written into the entries above the diagonal of ``upper``.
    """
    x, y = slice(n, n + l), slice(n + l, n + 2 * l)
    ct = np.swapaxes(c, -1, -2)
    pair = np.triu(c - ct, 1)
    upper[..., x, x] += pair
    upper[..., y, y] += pair
    upper[..., x, y] += -1j * (c + ct)


def _antisymmetric(upper):
    """The real 2-form with the entries ``upper`` above the diagonal; an
    imaginary part above 1e-9 of a component's scale (>= 1) is a GHError."""
    scale = np.max(np.abs(upper), axis=(0, 1), initial=1.0)
    bad = np.argwhere(np.max(np.abs(upper.imag), axis=(0, 1), initial=0.0)
                      > 1e-9 * scale)
    if bad.size:
        raise GHError(f"2-form component {tuple(map(int, bad[0]))} is not real")
    real = upper.real
    return real - np.swapaxes(real, -1, -2)


def curvature_form(sol, pts):
    """The curvature 2-forms F_j as an (N, n, nc, nc) array, batched.

    F_j[u_i, x_p] = dV^{ij}/dy_p and F_j[u_i, y_p] = -dV^{ij}/dx_p; the base
    block is (i/2) dW^{pq}/du_j d eta_p ^ d etabar_q.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, l, nc = sol.n, sol.l, sol.ncoords
    upper = np.zeros((pts.shape[0], n, nc, nc), dtype=complex)
    for p in range(l):
        # V^{ij} is indexed [N, i, j]; the form index j goes first
        vx = np.swapaxes(sol.V_partial(unit(nc, n + p), pts), 1, 2)
        vy = np.swapaxes(sol.V_partial(unit(nc, n + l + p), pts), 1, 2)
        upper[:, :, :n, n + p] = vy
        upper[:, :, :n, n + l + p] = -vx
    wu = np.stack([sol.W_partial(unit(nc, j), pts) for j in range(n)], axis=1)
    _add_base_block(upper, 0.5j * wu, n, l)
    return _antisymmetric(upper)


def kahler_form(sol, pts):
    """The basic part of the Kahler form as an (N, 1, nc, nc) array.

    omega[u_j, x_p] = 2 Re A_jp and omega[u_j, y_p] = -2 Im A_jp from the
    d eta coefficients of the connection; the base block is (i/2) W.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    alpha = sol.connection(pts)
    if alpha is None:
        raise GHError("solution exposes no connection coefficients")
    n, l, nc = sol.n, sol.l, sol.ncoords
    upper = np.zeros((pts.shape[0], 1, nc, nc), dtype=complex)
    upper[:, 0, :n, n:n + l] = 2.0 * alpha.real
    upper[:, 0, :n, n + l:] = -2.0 * alpha.imag
    _add_base_block(upper, 0.5j * sol.W(pts)[:, None], n, l)
    return _antisymmetric(upper)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    max_residual: float
    argmax_point: list
    passed: bool
    extra: dict = field(default_factory=dict)


def _d_residual(form, sol, pts, step):
    """Max over the batch of |dF| for the 2-form array F = form(sol, pts),
    with its point, and the largest Richardson disagreement of the partials,
    with its point.

    dF_abc = d_a F_bc - d_b F_ac + d_c F_ab for a < b < c, with each partial
    a finite difference of the whole array; all nc of them come from one
    ``form`` call on the stacked stencil points.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nc = pts.shape[1]
    partials = []
    gap, gap_at = 0.0, pts[0]
    for val, err in fd_partial(lambda q: form(sol, q), pts,
                               [unit(nc, k) for k in range(nc)], step,
                               return_err=True):
        partials.append(val)
        errs = np.max(err.reshape(len(pts), -1), axis=1, initial=0.0)
        k = int(np.argmax(errs))
        if errs[k] > gap:
            gap, gap_at = float(errs[k]), pts[k]
    worst = 0.0
    argmax = pts[0]
    for a, b, c in itertools.combinations(range(nc), 3):
        r = (partials[a][..., b, c] - partials[b][..., a, c]
             + partials[c][..., a, b])
        mags = np.max(np.abs(r), axis=1)
        k = int(np.argmax(mags))
        if mags[k] > worst:
            worst = float(mags[k])
            argmax = pts[k]
    return worst, argmax, gap, gap_at


def potential_identity_residual(sol, pts):
    """Pointwise residual of  d2 W^{pq}/du_i du_j + 4 d2 V^{ij}/d eta d etabar."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n, l, nc = sol.n, sol.l, sol.ncoords
    worst = 0.0
    for i in range(n):
        for j in range(n):
            wuu = sol.W_partial(unit(nc, i, j), pts)
            for p in range(l):
                for q in range(l):
                    xx = unit(nc, n + p, n + q)
                    yy = unit(nc, n + l + p, n + l + q)
                    xy = unit(nc, n + p, n + l + q)
                    yx = unit(nc, n + l + p, n + q)
                    vterm = sol.V_partial(xx, pts) + sol.V_partial(yy, pts)
                    if p != q:
                        # for p == q, xy and yx are one multi-index
                        vterm = vterm + 1j * (sol.V_partial(xy, pts)
                                              - sol.V_partial(yx, pts))
                    r = np.abs(wuu[:, p, q] + vterm[:, i, j])
                    worst = max(worst, float(np.max(r, initial=0.0)))
    return worst


def verify_closed(sol, grid_pts, step=1e-4, tolerance=1e-6):
    """Closedness report: dF = 0, d omega = 0 (when A is known) and the
    mixed fourth-derivative identity, all over a point batch.

    A step too coarse for the tolerance fails the report: where the two
    grids of the finite differences disagree by more than 10x tolerance,
    the residuals are not known to that precision.  ``extra`` names the
    largest disagreement ("richardson") and its point either way.
    """
    pts = np.atleast_2d(np.asarray(grid_pts, dtype=float))
    if pts.size == 0:
        raise GHError("the point batch is empty: there is no point to check")
    sol.domain.require(pts)
    df, arg_f, gap, gap_at = _d_residual(curvature_form, sol, pts, step)
    domega = None
    if sol.connection(pts[:1]) is not None:
        domega, _, gap_o, at_o = _d_residual(kahler_form, sol, pts, step)
        if gap_o > gap:
            gap, gap_at = gap_o, at_o
    ident = potential_identity_residual(sol, pts)
    worst = max(df, ident if domega is None else max(domega, ident))
    too_coarse = gap > 10.0 * tolerance
    return ResidualReport(
        max_residual=worst, argmax_point=list(map(float, arg_f)),
        passed=bool(worst <= tolerance and not too_coarse),
        extra={"dF": df, "dOmega": domega, "potentialIdentity": ident,
               "richardson": gap, "richardsonPoint": list(map(float, gap_at)),
               "stepTooLarge": bool(too_coarse)})


def verify_compat(sol, grid_pts, tolerance=1e-10):
    """Max of |det W / det V - 1| over the grid (Ricci-flatness scalar).

    Where W is V's own table (the periodic family), the table is read once
    and the check is structural: it can only read 0 where det V > 0, and
    ``extra["structural"]`` says so.
    """
    pts = np.atleast_2d(np.asarray(grid_pts, dtype=float))
    if pts.size == 0:
        raise GHError("the point batch is empty: there is no point to check")
    detv = np.linalg.det(sol.V(pts))
    structural = sol._W is sol._V
    if structural:
        detw = np.abs(detv)
    elif sol.l:
        detw = np.abs(np.linalg.det(sol.W(pts)))
    else:
        detw = np.ones(pts.shape[0])
    r = np.abs(detw / detv - 1.0)
    k = int(np.argmax(r))
    return ResidualReport(
        max_residual=float(r[k]), argmax_point=list(map(float, pts[k])),
        passed=bool(r[k] <= tolerance), extra={"structural": structural})


def _sphere_grid(nphi, ntheta):
    # a local import: the commands that need no sphere do not load lattice
    from .lattice import _leggauss

    nodes, weights = _leggauss(nphi)
    phi = 0.5 * np.pi * (nodes + 1.0)
    wphi = 0.5 * np.pi * weights
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    wtheta = np.full(ntheta, 2.0 * np.pi / ntheta)
    return phi, wphi, theta, wtheta


def chern_flux(sol, wall_point, radius, nodes=(32, 64), normal=None):
    """(1/2pi) integral of the curvature over a small 2-sphere.

    The sphere sits in the 3-space spanned by a u-direction (``normal``,
    default the first axis) and the first base plane (x_1, y_1), centered at
    (wall_point, eta_1 = 0).  Returns the flux vector, one entry per fiber
    index.
    """
    if sol.l < 1:
        raise GHError("flux needs at least one base coordinate")
    n, nc = sol.n, sol.ncoords
    wall_point = np.atleast_1d(np.asarray(wall_point, dtype=float))
    if normal is None:
        normal = np.zeros(n)
        normal[0] = 1.0
    normal = np.asarray(normal, dtype=float)
    normal = normal / np.linalg.norm(normal)
    nphi, ntheta = nodes
    phi, wphi, theta, wtheta = _sphere_grid(nphi, ntheta)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    WP, WT = np.meshgrid(wphi, wtheta, indexing="ij")
    N = P.size
    pts = np.zeros((N, nc))
    pts[:, :n] = wall_point[None, :] + np.outer(radius * np.cos(P).ravel(),
                                                normal)
    pts[:, n] = radius * np.sin(P).ravel() * np.cos(T).ravel()
    pts[:, n + sol.l] = radius * np.sin(P).ravel() * np.sin(T).ravel()
    if sol.discriminant is not None:
        # sampled distances miss tangency points, so the floor scales with R
        dmin = float(np.min(sol.discriminant(pts)))
        if dmin < 0.05 * radius:
            raise SphereHitsDiscriminant(f"sphere within {dmin} of discriminant")
    tp = np.zeros((N, nc))
    tp[:, :n] = np.outer(-radius * np.sin(P).ravel(), normal)
    tp[:, n] = radius * np.cos(P).ravel() * np.cos(T).ravel()
    tp[:, n + sol.l] = radius * np.cos(P).ravel() * np.sin(T).ravel()
    tt = np.zeros((N, nc))
    tt[:, n] = -radius * np.sin(P).ravel() * np.sin(T).ravel()
    tt[:, n + sol.l] = radius * np.sin(P).ravel() * np.cos(T).ravel()
    F = curvature_form(sol, pts)
    integrand = np.zeros((N, n))
    for a, b in itertools.combinations(range(nc), 2):
        integrand += F[:, :, a, b] * (tp[:, a] * tt[:, b]
                                      - tp[:, b] * tt[:, a])[:, None]
    w = (WP * WT).ravel()
    return (integrand * w[:, None]).sum(axis=0) / (2.0 * np.pi)
