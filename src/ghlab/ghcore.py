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

The verifiers work on the real coordinate frame (du, dx, dy): every 2-form
(the F_j, the Kahler form) is an (N, m, nc, nc) float array, antisymmetric
in its last two axes, with nc = n + 2l coordinates.  Exterior derivatives
and flux integrals are taken there by central finite differences with one
Richardson level and by quadrature.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import GHLabError
from .fields import (
    NumericScalarField,
    SymbolicScalarField,
    block_table,
    fd_partial,
    fd_step,
    shifted,
    unit,
    wirtinger_expansion,
)


class GHError(GHLabError):
    pass


class DomainViolation(GHError):
    pass


class NotPositiveDefinite(GHError):
    pass


class StepTooLarge(GHError):
    """Richardson disagreement exceeds 10x the requested tolerance."""


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


class BoxDomain(Domain):
    def __init__(self, bounds):
        self.bounds = [(float(a), float(b)) for a, b in bounds]

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        ok = np.ones(pts.shape[0], dtype=bool)
        for k, (a, b) in enumerate(self.bounds):
            ok &= (pts[:, k] >= a) & (pts[:, k] <= b)
        return ok

    def __repr__(self):
        return f"BoxDomain({self.bounds})"


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
# potential fields
# ---------------------------------------------------------------------------

class PotentialField:
    """Real potential on the (u, x, y) chart with mixed Wirtinger partials."""

    def __init__(self, scalar_field, n, l, domain=None, name=""):
        self.field = scalar_field
        self.n = int(n)
        self.l = int(l)
        if scalar_field.dim != self.n + 2 * self.l:
            raise ValueError("scalar field dimension does not match (n, l)")
        self.domain = domain if domain is not None else WholeSpace()
        self.name = name
        self._expansions = {}

    @classmethod
    def from_sympy(cls, expr, symbols, n, l, domain=None, name=""):
        return cls(SymbolicScalarField(expr, symbols), n, l, domain, name)

    @classmethod
    def from_callable(cls, func, n, l, domain=None, steps=1e-4, name=""):
        return cls(NumericScalarField(func, n + 2 * l, steps), n, l, domain,
                   name)

    @property
    def ncoords(self):
        return self.n + 2 * self.l

    def value(self, pts):
        return self.field.value(pts)

    def real_partial(self, orders, pts):
        return self.field.partial_value(orders, pts)

    def wirtinger(self, alpha, beta, gamma, pts, extra=None):
        """d^alpha_u d^beta_eta d^gamma_etabar Phi, batched over pts."""
        key = (tuple(alpha), tuple(beta), tuple(gamma))
        if key not in self._expansions:
            self._expansions[key] = wirtinger_expansion(
                self.n, self.l, *key)
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(pts.shape[0], dtype=complex)
        for mi, co in self._expansions[key].items():
            full = mi if extra is None else tuple(a + b for a, b in zip(mi, extra))
            out += co * self.real_partial(full, pts)
        return out


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

class BlockSolution:
    """Batched block tables V (n x n) and W (l x l) over a base domain.

    ``V``/``W`` are callables pts -> (N, n, n) / (N, l, l).  The partial
    providers ``V_partial``/``W_partial`` (orders, pts) -> table are optional
    closed forms; without one, partials are finite differences of the table
    with the shared ``fd_step`` policy.  Subclasses set the dtype of W.
    """

    w_dtype = float

    def __init__(self, n, l, V, W, domain=None, potential=None,
                 V_partial=None, W_partial=None, fd_steps=1e-4, name=""):
        self.n, self.l = int(n), int(l)
        self._V, self._W = V, W
        self.domain = domain if domain is not None else WholeSpace()
        self.potential = potential
        self._V_partial = V_partial
        self._W_partial = W_partial
        self.fd_steps = fd_steps
        self.name = name

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
        return fd_partial(table, pts, orders, fd_step(self.fd_steps, orders))

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
    (the d etabar coefficient is its conjugate, forced by reality); its
    partials follow the same provider-or-finite-difference rule as V and W.
    """

    w_dtype = complex

    def __init__(self, n, l, V, W, domain=None, potential=None,
                 connection=None, V_partial=None, W_partial=None,
                 connection_partial=None, discriminant=None, fd_steps=1e-4,
                 name=""):
        super().__init__(n, l, V, W, domain=domain, potential=potential,
                         V_partial=V_partial, W_partial=W_partial,
                         fd_steps=fd_steps, name=name)
        self._connection = connection
        self._connection_partial = connection_partial
        self.discriminant = discriminant

    @property
    def ncoords(self):
        return self.n + 2 * self.l

    def connection(self, pts):
        if self._connection is None:
            return None
        return np.asarray(self._connection(np.atleast_2d(pts)), dtype=complex)

    def connection_partial(self, orders, pts):
        if self._connection is None:
            return None
        return self._partial(self._connection_partial, self.connection,
                             orders, pts)

    @classmethod
    def from_potential(cls, phi, discriminant=None, name=""):
        n, l, nc = phi.n, phi.l, phi.ncoords

        def V_partial(orders, pts):
            return block_table(pts, n, n, lambda i, j, x: phi.real_partial(
                shifted(orders, i, j), x), symmetric=True)

        def W_partial(orders, pts):
            return block_table(pts, l, l, lambda p, q, x: -4.0 * phi.wirtinger(
                (0,) * n, unit(l, p), unit(l, q), x, extra=orders),
                dtype=complex)

        def connection_partial(orders, pts):
            return block_table(pts, n, l, lambda j, p, x: 1j * phi.wirtinger(
                unit(n, j), unit(l, p), (0,) * l, x, extra=orders),
                dtype=complex)

        return cls(n, l, at_zero_orders(V_partial, nc),
                   at_zero_orders(W_partial, nc), domain=phi.domain,
                   potential=phi,
                   connection=at_zero_orders(connection_partial, nc)
                   if l else None,
                   V_partial=V_partial, W_partial=W_partial,
                   connection_partial=connection_partial if l else None,
                   discriminant=discriminant, name=name or phi.name)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def derive_vw(phi, point, pd_tol=0.0, asym_tol=1e-8):
    """(V, W) at one point, with symmetry and positivity checks."""
    import warnings

    pts = np.atleast_2d(np.asarray(point, dtype=float))
    phi.domain.require(pts)
    sol = GHSolution.from_potential(phi)
    V = sol.V(pts)[0]
    W = sol.W(pts)[0]
    if np.max(np.abs(V - V.T), initial=0.0) > asym_tol:
        warnings.warn("V asymmetry beyond tolerance; symmetrizing",
                      RuntimeWarning, stacklevel=2)
    if W.size and np.max(np.abs(W - W.conj().T), initial=0.0) > asym_tol:
        warnings.warn("W hermiticity beyond tolerance; averaging",
                      RuntimeWarning, stacklevel=2)
    V = 0.5 * (V + V.T)
    W = 0.5 * (W + W.conj().T)
    if np.linalg.eigvalsh(V).min() <= pd_tol:
        raise NotPositiveDefinite("V is not positive definite")
    if W.size and np.linalg.eigvalsh(W).min() <= pd_tol:
        raise NotPositiveDefinite("W is not positive definite")
    return V, W


def connection_form(phi, point):
    """Coefficient tables of A_j: (d eta coefficients, their conjugates)."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    phi.domain.require(pts)
    a = GHSolution.from_potential(phi).connection(pts)
    a = np.zeros((phi.n, 0), dtype=complex) if a is None else a[0]
    return a, a.conj()


def _as_solution(source):
    if isinstance(source, GHSolution):
        return source
    if isinstance(source, PotentialField):
        return GHSolution.from_potential(source)
    if hasattr(source, "as_gh_solution"):
        return source.as_gh_solution()
    raise TypeError(f"cannot interpret {type(source).__name__} as a GH solution")


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


def curvature_form(source, pts):
    """The curvature 2-forms F_j as an (N, n, nc, nc) array, batched.

    F_j[u_i, x_p] = dV^{ij}/dy_p and F_j[u_i, y_p] = -dV^{ij}/dx_p; the base
    block is (i/2) dW^{pq}/du_j d eta_p ^ d etabar_q.
    """
    sol = _as_solution(source)
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


def curvature(source, point):
    """The curvature 2-forms F_j at one point, an (n, nc, nc) array."""
    sol = _as_solution(source)
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    sol.domain.require(pts)
    return curvature_form(sol, pts)[0]


def kahler_form(source, pts):
    """The basic part of the Kahler form as an (N, 1, nc, nc) array.

    omega[u_j, x_p] = 2 Re A_jp and omega[u_j, y_p] = -2 Im A_jp from the
    d eta coefficients of the connection; the base block is (i/2) W.
    """
    sol = _as_solution(source)
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
    check: str
    grid: str
    max_residual: float
    argmax_point: list
    step: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_json(self):
        d = {"check": self.check, "grid": self.grid,
             "maxResidual": self.max_residual,
             "argmaxPoint": self.argmax_point, "step": self.step,
             "tolerance": self.tolerance, "pass": self.passed}
        d.update(self.extra)
        return json.dumps(d, sort_keys=True)


def _d_residual(form, sol, pts, step, tolerance):
    """Max over the batch of |dF| for the 2-form array F = form(sol, pts).

    dF_abc = d_a F_bc - d_b F_ac + d_c F_ab for a < b < c, with each partial
    a finite difference of the whole array.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    nc = pts.shape[1]
    partials = []
    max_disagree = 0.0
    for k in range(nc):
        val, err = fd_partial(lambda q: form(sol, q), pts, unit(nc, k), step,
                              return_err=True)
        partials.append(val)
        max_disagree = max(max_disagree, float(np.max(err, initial=0.0)))
    if max_disagree > 10.0 * tolerance:
        raise StepTooLarge(
            f"Richardson disagreement {max_disagree:.2e} > 10 x {tolerance:.1e}")
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
    return worst, argmax


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
                    vterm = (sol.V_partial(xx, pts) + sol.V_partial(yy, pts)
                             + 1j * (sol.V_partial(xy, pts)
                                     - sol.V_partial(yx, pts)))
                    r = np.abs(wuu[:, p, q] + vterm[:, i, j])
                    worst = max(worst, float(np.max(r, initial=0.0)))
    return worst


def verify_closed(source, grid_pts, step=1e-4, tolerance=1e-6):
    """Closedness report: dF = 0, d omega = 0 (when A is known) and the
    mixed fourth-derivative identity, all over a point batch."""
    sol = _as_solution(source)
    pts = np.atleast_2d(np.asarray(grid_pts, dtype=float))
    sol.domain.require(pts)
    df, arg_f = _d_residual(curvature_form, sol, pts, step, tolerance)
    domega = None
    if sol.connection(pts[:1]) is not None:
        domega, _ = _d_residual(kahler_form, sol, pts, step, tolerance)
    ident = potential_identity_residual(sol, pts)
    worst = max(df, ident if domega is None else max(domega, ident))
    return ResidualReport(
        check="closedness", grid=f"{pts.shape[0]} pts", max_residual=worst,
        argmax_point=list(map(float, arg_f)), step=step, tolerance=tolerance,
        passed=bool(worst <= tolerance),
        extra={"dF": df, "dOmega": domega, "potentialIdentity": ident})


def verify_compat(source, grid_pts, tolerance=1e-10):
    """Max of |det W / det V - 1| over the grid (Ricci-flatness scalar)."""
    sol = _as_solution(source)
    pts = np.atleast_2d(np.asarray(grid_pts, dtype=float))
    detv = np.linalg.det(sol.V(pts))
    detw = np.abs(np.linalg.det(sol.W(pts))) if sol.l else np.ones(pts.shape[0])
    r = np.abs(detw / detv - 1.0)
    k = int(np.argmax(r))
    return ResidualReport(
        check="compatibility", grid=f"{pts.shape[0]} pts",
        max_residual=float(r[k]), argmax_point=list(map(float, pts[k])),
        step=0.0, tolerance=tolerance, passed=bool(r[k] <= tolerance))


def _sphere_grid(nphi, ntheta):
    nodes, weights = np.polynomial.legendre.leggauss(nphi)
    phi = 0.5 * np.pi * (nodes + 1.0)
    wphi = 0.5 * np.pi * weights
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    wtheta = np.full(ntheta, 2.0 * np.pi / ntheta)
    return phi, wphi, theta, wtheta


def chern_flux(source, wall_point, radius, nodes=(32, 64), normal=None,
               guard=None):
    """(1/2pi) integral of the curvature over a small 2-sphere.

    The sphere sits in the 3-space spanned by a u-direction (``normal``,
    default the first axis) and the first base plane (x_1, y_1), centered at
    (wall_point, eta_1 = 0).  Returns the flux vector, one entry per fiber
    index.
    """
    sol = _as_solution(source)
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
        floor = 0.05 * radius if guard is None else guard
        dmin = float(np.min(sol.discriminant(pts)))
        if dmin < floor:
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


@dataclass
class CompletenessProbe:
    u_maxes: list
    values: list
    increasing: bool
    last_slope: float
    verdict: str


def completeness_probe(source, i, j, u_maxes, base=None, samples=512,
                       slope_floor=1e-3):
    """Partial integrals of 1/(V^{-1})^{ij} along the u_i ray from base.

    A numerical probe, not a proof: the verdict says whether the partial
    integrals are still visibly growing at the largest cutoff.
    """
    sol = _as_solution(source)
    u_maxes = sorted(float(u) for u in u_maxes)
    if u_maxes[0] <= 0:
        raise ValueError("cutoffs must be positive")
    base_pt = np.zeros(sol.ncoords) if base is None else \
        np.asarray(base, dtype=float)
    ts = np.linspace(0.0, u_maxes[-1], samples)
    pts = np.tile(base_pt, (samples, 1))
    pts[:, i] += ts
    sol.domain.require(pts)
    vinv = np.linalg.inv(sol.V(pts))
    g = 1.0 / vinv[:, i, j]
    cumulative = np.concatenate([[0.0], np.cumsum(
        0.5 * (g[1:] + g[:-1]) * np.diff(ts))])
    values = [float(np.interp(u, ts, cumulative)) for u in u_maxes]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    if len(values) >= 2:
        last_slope = (values[-1] - values[-2]) / (u_maxes[-1] - u_maxes[-2])
    else:
        last_slope = float(g[-1])
    ref = abs(values[-1]) / max(u_maxes[-1], 1.0)
    verdict = "diverging" if (increasing and last_slope > slope_floor * max(ref, 1e-12)) \
        else "inconclusive/convergent"
    return CompletenessProbe(u_maxes=u_maxes, values=values,
                             increasing=increasing, last_slope=float(last_slope),
                             verdict=verdict)
