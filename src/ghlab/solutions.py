"""Explicit model solutions: flat toric, Taub-NUT, semi-flat, Ooguri-Vafa.

The flat metric on C^{n+1} in fibration coordinates:

    u_i = (|z_i|^2 - |z_0|^2) / 2,    eta = z_0 z_1 ... z_n,
    (V^{-1})^{ij} = |z_0|^2 + delta^{ij} |z_i|^2,
    W^{-1} = |z_0 ... z_n|^2 sum_i |z_i|^{-2},
    A_j = d theta_j - W |z_0 ... z_j-hat ... z_n|^2 d(theta_0 + ... + theta_n).

For n = 1 these are the a = 0 member of the Taub-NUT family
V = W = ell/(2 sqrt(u^2 + |eta|^2)) + a, whose potential is

    Phi = (ell/2) (u log(u + r) - r) + (a/2) u^2 - (a/4) |eta|^2,

smooth off the branch ray {eta = 0, u <= 0}.

The periodic family on R x R x S^1 sums the cylinder harmonics

    V = a - log(rho)/(2 pi) + sum_{0 < |m| <= M} c_m K0(|m| rho) e^{i m y} / (2 pi),

with rho the distance to the source in the (u, x) plane.  The 1/(2 pi) on
the higher modes is forced by the delta-function Fourier expansion, and is
validated by the total-flux check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
import sympy as sp

from . import GHLabError, NotPositive, QuadratureFailure
from .bessel import k0, k0_mp
from .fields import SymbolicScalarField
from .ghcore import (
    Domain,
    GHSolution,
    PotentialField,
    RadialDomain,
    WholeSpace,
    _sphere_grid,
)


class SolutionError(GHLabError):
    pass


class OnDiscriminant(SolutionError):
    pass


class NotConvex(SolutionError):
    pass


# ---------------------------------------------------------------------------
# flat C^{n+1}
# ---------------------------------------------------------------------------

@dataclass
class FlatSample:
    """Closed-form fibration data of the flat metric at one z."""
    z: np.ndarray
    u: np.ndarray              # (n,)
    eta: complex
    V: np.ndarray              # (n, n)
    W: np.ndarray              # (1, 1)
    # A_j = d theta_j + angular_coefficient[j] * d(theta_0 + ... + theta_n)
    angular_coefficient: np.ndarray


def flat_solution(n, z, guard=1e-8):
    """Evaluate the flat-metric fibration data at z in C^{n+1}.

    Fails with OnDiscriminant when two or more coordinates (nearly) vanish,
    where the fibration coordinates degenerate.
    """
    if n not in (1, 2):
        raise ValueError("flat_solution supports n in {1, 2}")
    z = np.asarray(z, dtype=complex)
    if z.size != n + 1:
        raise ValueError(f"need {n + 1} coordinates")
    mags = np.abs(z)
    if np.sum(mags < guard) >= 2:
        raise OnDiscriminant("two or more coordinates vanish")
    rho = mags ** 2
    u = 0.5 * (rho[1:] - rho[0])
    eta = complex(np.prod(z))
    if n == 1:
        vinv = np.array([[rho[0] + rho[1]]])
    else:
        vinv = np.full((n, n), rho[0]) + np.diag(rho[1:])
    V = np.linalg.inv(vinv)
    winv = abs(eta) ** 2 * np.sum(1.0 / rho)
    W = np.array([[1.0 / winv]])
    ang = np.array([-W[0, 0] * abs(eta) ** 2 / rho[j] for j in range(1, n + 1)])
    return FlatSample(z=z, u=u, eta=eta, V=V, W=W, angular_coefficient=ang)


class _BranchGuard(Domain):
    """Keeps points away from the potential's branch ray {x=y=0, u<=0}."""

    def __init__(self, margin=0.02):
        self.margin = margin

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        return pts[:, 0] + r >= self.margin * np.maximum(r, 1.0)

    def __repr__(self):
        return f"BranchGuard({self.margin})"


def taub_nut(ell, a, rmin=0.05, rmax=10.0, branch_margin=0.25):
    """The V = ell/(2r) + a family as a potential-backed solution (n=l=1).

    The declared domain excludes a wedge around the ray {eta = 0, u < 0}
    where the potential's log branch (and with it the connection gauge)
    degenerates; V, W and the curvature are smooth across it.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    if a < 0:
        raise ValueError("a must be nonnegative")
    u, x, y = sp.symbols("u x y", real=True)
    r = sp.sqrt(u ** 2 + x ** 2 + y ** 2)
    expr = sp.Rational(1, 2) * ell * (u * sp.log(u + r) - r) \
        + sp.Rational(1, 2) * a * u ** 2 - sp.Rational(1, 4) * a * (x ** 2 + y ** 2)
    domain = RadialDomain(rmin, rmax) & _BranchGuard(branch_margin)
    phi = PotentialField.from_sympy(expr, (u, x, y), n=1, l=1, domain=domain,
                                    name=f"taub-nut(ell={ell}, a={a})")
    sol = GHSolution.from_potential(
        phi, discriminant=lambda pts: np.linalg.norm(np.atleast_2d(pts), axis=1))
    sol.ell, sol.a = float(ell), float(a)
    return sol


def taub_nut_V(ell, a, pts):
    """Closed-form V = ell/(2r) + a on (u, x, y) points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    return 0.5 * ell / r + a


def taub_nut_laplacian(ell, pts):
    """Sum of the closed-form second derivatives of V (= 0 away from 0).

    Each d^2(1/r)/dc^2 = (3 c^2 - r^2)/r^5 is evaluated separately so the
    returned value measures genuine floating-point residual, not an
    algebraic cancellation.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r2 = np.sum(pts ** 2, axis=1)
    r5 = r2 ** 2.5
    second = (3.0 * pts ** 2 - r2[:, None]) / r5[:, None]
    return 0.5 * ell * np.sum(second, axis=1)


def flat_gh_solution(rmax=10.0):
    """Flat C^2 in fibration coordinates: the ell=1, a=0 Taub-NUT member."""
    sol = taub_nut(1.0, 0.0, rmin=1e-3, rmax=rmax, branch_margin=0.05)
    sol.name = "flat-C2"
    return sol


# ---------------------------------------------------------------------------
# semi-flat
# ---------------------------------------------------------------------------

def semiflat(ma_potential, symbols=None, n=None, domain=None, sample_pts=None):
    """Fiber-flat solution from a real potential with unit Hessian determinant.

    ``ma_potential`` is a sympy expression (with ``symbols``) or an object
    with ``partial_value``.  The base block is trivial (l = 0), so the
    compatibility residual is |1/det Hess - 1|.
    """
    if symbols is not None:
        fieldobj = SymbolicScalarField(ma_potential, symbols)
    else:
        fieldobj = ma_potential
    n = fieldobj.dim if n is None else n
    phi = PotentialField(fieldobj, n=n, l=0,
                         domain=domain if domain is not None else WholeSpace())
    sol = GHSolution.from_potential(phi, name="semi-flat")
    check = sample_pts if sample_pts is not None else np.zeros((1, n))
    eigs = np.linalg.eigvalsh(sol.V(check))
    if np.min(eigs) <= 0:
        raise NotConvex("Hessian of the potential is not positive definite")
    return sol


# ---------------------------------------------------------------------------
# periodic Fourier-Bessel family
# ---------------------------------------------------------------------------

class PeriodicFourierSolution:
    """Zero mode plus Bessel higher modes on R x R x S^1 (n = l = 1)."""

    def __init__(self, lam, M, a, source=(0.0, 0.0), coeffs=None, domain=None,
                 zero_mode=None, check_positive=True):
        if M < 1:
            raise ValueError("mode cutoff M must be >= 1")
        self.lam = float(lam)
        self.M = int(M)
        self.a = float(a)
        self.source = (float(source[0]), float(source[1]))
        self.coeffs = {int(m): complex(c) for m, c in (coeffs or {}).items()}
        for m in range(1, self.M + 1):
            self.coeffs.setdefault(m, 1.0 + 0.0j)
        self.domain = domain if domain is not None else \
            RadialDomain(0.1, 6.0, axes=(0, 1))
        self._zero_mode = zero_mode
        if check_positive:
            self._check_positive()

    def coefficient(self, m):
        if m == 0:
            raise ValueError("use zero_mode for m = 0")
        c = self.coeffs.get(abs(m), 0.0 + 0.0j)
        return c if m > 0 else np.conj(c)

    def _radii(self, u, x):
        return np.hypot(np.asarray(u, dtype=float) - self.source[0],
                        np.asarray(x, dtype=float) - self.source[1])

    def zero_mode(self, u, x):
        if self._zero_mode is not None:
            return np.asarray(self._zero_mode(u, x), dtype=float)
        return self.a - np.log(self._radii(u, x)) / (2.0 * np.pi)

    def mode_value(self, m, u, x):
        """The m-th Fourier coefficient V^m(u, x) (complex for m != 0)."""
        if m == 0:
            return self.zero_mode(u, x)
        rho = self._radii(u, x)
        return self.coefficient(m) * k0(abs(m) * rho) / (2.0 * np.pi)

    def value(self, pts):
        """V(u, x, y) on an (N, 3) batch, summed in ascending |m| order."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
        rho = self._radii(u, x)
        out = self.zero_mode(u, x).astype(float).copy()
        for m in range(1, self.M + 1):
            c = self.coeffs.get(m, 0.0 + 0.0j)
            if c == 0:
                continue
            out += 2.0 * np.real(c * np.exp(1j * m * y)) * k0(m * rho) \
                / (2.0 * np.pi)
        return out

    def _check_positive(self):
        rmin, rmax = self.domain.rmin, self.domain.rmax
        rs = np.geomspace(max(rmin, 1e-3), rmax, 24)
        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        ys = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        R, A, Y = np.meshgrid(rs, angles, ys, indexing="ij")
        pts = np.stack([self.source[0] + R * np.cos(A),
                        self.source[1] + R * np.sin(A), Y], axis=-1)
        vals = self.value(pts.reshape(-1, 3))
        if np.min(vals) <= 0.0:
            raise NotPositive(
                f"V attains {np.min(vals):.4g} <= 0 on the declared domain; "
                "increase the harmonic shift a")

    def helmholtz_residual(self, m, rho, dps=40):
        """(d^2/drho^2 + (1/rho) d/drho - m^2) V^m at radius rho.

        Evaluated with extended-precision central differences: the double
        noise floor of a second difference of K0-sized values is ~5e-7,
        above the 1e-8 contract, so the stencil runs on the arbitrary
        precision evaluator.
        """
        if m == 0:
            raise ValueError("zero mode satisfies the logarithmic equation")
        c = abs(self.coefficient(m)) / (2.0 * np.pi)
        with mp.workdps(dps):
            rho_mp = mp.mpf(rho)
            h = mp.mpf(10) ** (-int(dps // 3))

            def g(t):
                return c * k0_mp(abs(m) * t, dps=dps + 10)

            g0 = g(rho_mp)
            gp = (g(rho_mp + h) - g(rho_mp - h)) / (2 * h)
            gpp = (g(rho_mp + h) - 2 * g0 + g(rho_mp - h)) / (h * h)
            res = gpp + gp / rho_mp - m * m * g0
        return float(res)

    def as_gh_solution(self):
        """View as the n = l = 1 fibration data V = W (table-backed)."""
        def V(pts):
            return self.value(pts)[:, None, None]

        def W(pts):
            return self.value(pts)[:, None, None].astype(complex)

        sol = GHSolution(
            1, 1, V, W, domain=self.domain, connection=None,
            discriminant=lambda pts: self._radii(
                np.atleast_2d(pts)[:, 0], np.atleast_2d(pts)[:, 1]),
            fd_steps=1e-4, name=f"ooguri-vafa(M={self.M})")
        return sol


def ooguri_vafa(lam, M, a, source=(0.0, 0.0), domain=None):
    """Construct the periodic family; errors if V is not positive."""
    return PeriodicFourierSolution(lam, M, a, source=source, domain=domain)


def solution_from_config(cfg):
    """Build a solution family from its JSON-style config dict.

    Schema: {"family": ..., "n": ..., "l": ..., "lambda": ..., "M": ...,
    "a": ..., "ell": ..., "domain": {"rmin": ..., "rmax": ...}}; unknown
    keys are rejected.
    """
    known = {"family", "n", "l", "lambda", "M", "a", "ell", "domain"}
    extra = set(cfg) - known
    if extra:
        raise ValueError(f"unknown config fields: {sorted(extra)}")
    family = cfg.get("family")
    dom = cfg.get("domain", {})
    if family == "flat":
        if cfg.get("n", 1) != 1:
            raise ValueError("only the n = 1 flat family has a fibration-"
                             "coordinate solution object")
        return flat_gh_solution(rmax=dom.get("rmax", 10.0))
    if family == "taub-nut":
        return taub_nut(cfg.get("ell", 1.0), cfg.get("a", 0.0),
                        rmin=dom.get("rmin", 0.05),
                        rmax=dom.get("rmax", 10.0))
    if family == "ooguri-vafa":
        domain = None
        if dom:
            domain = RadialDomain(dom.get("rmin", 0.1), dom.get("rmax", 6.0),
                                  axes=(0, 1))
        return ooguri_vafa(cfg.get("lambda", 1.0), cfg.get("M", 20),
                           cfg.get("a", 4.0), domain=domain)
    raise ValueError(f"unknown family {family!r}")


def ov_total_flux(sol, radius, nodes=(256, 64), center=None, surface="torus",
                  h=1e-6):
    """Flux of grad V through a Gauss surface of given radius.

    ``surface="torus"`` (default) integrates over the full-period surface
    {|(u,x) - center| = radius} x S^1, which captures the entire periodic
    source for every mode cutoff; ``surface="sphere"`` is the literal round
    sphere and inherits an O(1/((2M+1) sin(R/2))) truncation oscillation.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = sol.source if center is None else (float(center[0]),
                                                float(center[1]))
    na, ny = nodes
    if surface == "torus":
        alpha = 2.0 * np.pi * np.arange(na) / na
        ys = 2.0 * np.pi * np.arange(ny) / ny
        A, Y = np.meshgrid(alpha, ys, indexing="ij")
        nrm = np.stack([np.cos(A).ravel(), np.sin(A).ravel(),
                        np.zeros(A.size)], axis=-1)
        base = np.stack([center[0] + radius * np.cos(A).ravel(),
                         center[1] + radius * np.sin(A).ravel(),
                         Y.ravel()], axis=-1)
        area = radius * (2.0 * np.pi / na) * (2.0 * np.pi / ny)
    elif surface == "sphere":
        phi, wphi, theta, wtheta = _sphere_grid(na, ny)
        P, T = np.meshgrid(phi, theta, indexing="ij")
        WP, WT = np.meshgrid(wphi, wtheta, indexing="ij")
        nrm = np.stack([np.sin(P).ravel() * np.cos(T).ravel(),
                        np.sin(P).ravel() * np.sin(T).ravel(),
                        np.cos(P).ravel()], axis=-1)
        base = np.stack([center[0], center[1], 0.0]) + radius * nrm
        area = (radius ** 2 * np.sin(P) * WP * WT).ravel()
    else:
        raise ValueError("surface must be 'torus' or 'sphere'")
    vplus = sol.value(base + h * nrm)
    vminus = sol.value(base - h * nrm)
    dn = (vplus - vminus) / (2.0 * h)
    if not np.all(np.isfinite(dn)):
        raise QuadratureFailure("non-finite normal derivative on the surface")
    return float(np.sum(dn * area))
