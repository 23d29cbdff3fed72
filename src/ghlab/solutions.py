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

    V = a - log(rho/lam)/(2 pi) + sum_{0 < |m| <= M} K0(|m| rho) e^{i m y} / (2 pi),

with rho = |(u, x)| the distance to the source at the origin of the (u, x)
plane; lam rescales the zero mode as in the large complex structure limit
a - log|q|/(2 pi) of V at (lam q, y).  Each mode solves
(d^2/drho^2 + (1/rho) d/drho - m^2) V^m = 0; ``helmholtz_residual`` checks
that on the double-precision modes V is summed from, and no part of the
family uses mpmath.  The 1/(2 pi) on the higher modes is forced by the
delta-function Fourier expansion.  The total flux cannot see it: the
full-period surface around the source integrates every mode m != 0 to
zero.  The mode sum is the Poisson dual of the image sum of 1/(2r) over
the sources at y = 2 pi k; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import GHLabError, NotPositive, QuadratureFailure
from .bessel import k0
from .fields import JetScalarField, log, sqrt
from .ghcore import Domain, GHSolution, RadialDomain


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
    """Closed-form fibration data of the flat metric at z in C^{n+1}.

    For one point z the fields have the shapes noted; for an (N, n + 1)
    batch every field gains a leading axis of length N.
    """
    u: np.ndarray              # (n,)
    eta: complex
    V: np.ndarray              # (n, n)
    W: np.ndarray              # (1, 1)
    # A_j = d theta_j + angular_coefficient[j] * d(theta_0 + ... + theta_n)
    angular_coefficient: np.ndarray


def flat_solution(n, z):
    """Evaluate the flat-metric fibration data at z in C^{n+1}.

    ``z`` is one point or an (N, n + 1) batch.  Fails with OnDiscriminant,
    naming the first such row, when two or more coordinates of a point
    (below 1e-8 in modulus) vanish, where the fibration coordinates
    degenerate.
    """
    if n not in (1, 2):
        raise ValueError("flat_solution supports n in {1, 2}")
    z = np.asarray(z, dtype=complex)
    if z.ndim not in (1, 2) or z.shape[-1] != n + 1:
        raise ValueError(f"need {n + 1} coordinates")
    zs = np.atleast_2d(z)
    mags = np.abs(zs)
    bad = np.flatnonzero(np.sum(mags < 1e-8, axis=1) >= 2)
    if bad.size:
        raise OnDiscriminant(
            f"two or more coordinates vanish in row {bad[0]}: {zs[bad[0]]}")
    rho = mags ** 2
    u = 0.5 * (rho[:, 1:] - rho[:, :1])
    eta = np.prod(zs, axis=1)
    vinv = rho[:, :1, None] + rho[:, 1:, None] * np.eye(n)
    V = np.linalg.inv(vinv)
    eta2 = np.hypot(eta.real, eta.imag) ** 2
    winv = eta2 * np.sum(1.0 / rho, axis=1)
    W = (1.0 / winv)[:, None, None]
    ang = -W[:, 0] * eta2[:, None] / rho[:, 1:]
    if z.ndim == 1:
        return FlatSample(u=u[0], eta=complex(eta[0]), V=V[0], W=W[0],
                          angular_coefficient=ang[0])
    return FlatSample(u=u, eta=eta, V=V, W=W, angular_coefficient=ang)


class _BranchGuard(Domain):
    """Keeps points away from the potential's branch ray {x=y=0, u<=0}."""

    def __init__(self, margin):
        self.margin = margin

    def contains(self, pts):
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        return pts[:, 0] + r >= self.margin * np.maximum(r, 1.0)

    def __repr__(self):
        return f"BranchGuard({self.margin})"


def taub_nut(ell, a, rmin=0.05, branch_margin=0.25):
    """The V = ell/(2r) + a family as a potential-backed solution (n=l=1).

    The declared domain excludes a wedge around the ray {eta = 0, u < 0}
    where the potential's log branch (and with it the connection gauge)
    degenerates; V, W and the curvature are smooth across it.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    if a < 0:
        raise ValueError("a must be nonnegative")

    def potential(u, x, y):
        u2, x2, y2 = u ** 2, x ** 2, y ** 2
        r = sqrt(u2 + x2 + y2)
        return 0.5 * ell * (u * log(u + r) - r) + 0.5 * a * u2 \
            - 0.25 * a * (x2 + y2)

    return GHSolution.from_potential(
        JetScalarField(potential, 3), 1, 1,
        domain=RadialDomain(rmin, 10.0) & _BranchGuard(branch_margin),
        discriminant=lambda pts: np.linalg.norm(np.atleast_2d(pts), axis=1))


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


def flat_gh_solution():
    """Flat C^2 in fibration coordinates: the ell=1, a=0 Taub-NUT member."""
    return taub_nut(1.0, 0.0, rmin=1e-3, branch_margin=0.05)


# ---------------------------------------------------------------------------
# semi-flat
# ---------------------------------------------------------------------------

def semiflat(ma_potential):
    """Fiber-flat solution from a real potential with unit Hessian determinant.

    ``ma_potential`` is a scalar field of the n coordinates, such as a
    ``fields.JetScalarField``.  The base block is trivial (l = 0), so the
    compatibility residual is |1/det Hess - 1|.  The Hessian must be
    positive definite at the origin.
    """
    n = ma_potential.dim
    sol = GHSolution.from_potential(ma_potential, n, 0)
    eigs = np.linalg.eigvalsh(sol.V(np.zeros((1, n))))
    if np.min(eigs) <= 0:
        raise NotConvex("Hessian of the potential is not positive definite")
    return sol


# ---------------------------------------------------------------------------
# periodic Fourier-Bessel family
# ---------------------------------------------------------------------------

# value() sums the modes of each distinct (radius, y) pair of the batch, or
# of each point when a zero_mode= function sets the zero mode (only the
# benchmark passes one), in slices of at most M x this many sums.  A slice
# takes as many modes at a time as keep its (mode, sum) tables within M x
# this many entries (one mode at the least), and frees them before the next
# chunk's k0 call: on a 20,000-point batch at M = 40 the traced peak is
# 5.7 MiB, against 12.0 MiB with 4,096 and the tables kept.  A sum drops out
# after the first chunk of modes past which no term can change a bit of it,
# so no value depends on this size
_VALUE_BLOCK = 2048


def _used(values, of):
    """The entries of ``values`` that the indices ``of`` use, and ``of``
    renumbered into them."""
    used = np.zeros(len(values), dtype=bool)
    used[of] = True
    return values[used], (np.cumsum(used) - 1)[of]


def _mode_sums(acc, rho, t_rho, ys, t_y, M):
    """acc + t_1 + ... + t_M per sum, with t_m = 2 Re(e^{i m y}) K0(m rho)
    / (2 pi) at rho[t_rho] and ys[t_y].  The sums run in ``acc``'s own
    memory; the stop rule is in ``PeriodicFourierSolution.value``."""
    # a slice of a larger batch takes only the radii and y it uses, so no
    # table has more columns than sums
    if len(rho) > len(acc):
        rho, t_rho = _used(rho, t_rho)
    if len(ys) > len(acc):
        ys, t_y = _used(ys, t_y)
    out = np.empty_like(acc)
    live = np.arange(len(acc))
    k = max(1, M * _VALUE_BLOCK // max(len(acc), 1))
    for j in range(0, M, k):
        mcol = np.arange(j + 1, min(j + k, M) + 1, dtype=float)[:, None]
        fiber = 2.0 * np.exp(1j * mcol * ys).real
        terms = np.take(fiber, t_y, axis=1)
        k0_live = np.take(k0(mcol * rho), t_rho, axis=1)
        terms *= k0_live
        terms /= 2.0 * np.pi
        for term in terms:
            acc += term
        if j + k >= M:
            break
        # 2 B, with B = 2 K0(m rho) / (2 pi)
        bound = 4.0 / (2.0 * np.pi) * k0_live[-1]
        # the chunk's tables go before the next k0 call; the loop's term
        # alone would keep terms alive
        del fiber, terms, term, k0_live
        done = bound < np.spacing(np.abs(acc)) / 4.0
        if done.any():
            out[live[done]] = acc[done]
            keep = ~done
            live, acc = live[keep], acc[keep]
            if not live.size:
                break
            rho, t_rho = _used(rho, t_rho[keep])
            ys, t_y = _used(ys, t_y[keep])
    out[live] = acc
    return out


class PeriodicFourierSolution(GHSolution):
    """Zero mode a - log(rho/lam)/(2 pi) plus the unit Bessel modes
    0 < |m| <= M on R x R x S^1 (n = l = 1), with the source at the origin.

    As fibration data V = W is the ``value`` table; it exposes no
    connection, and its partials are finite differences of the table.  The
    domain is 0.1 <= rho <= 6 around the source.  A ``zero_mode=`` function
    of (u, x) replaces the built-in zero mode; only the benchmark passes
    one.
    """

    def __init__(self, lam, M, a, zero_mode=None, check_positive=True):
        if M < 1:
            raise ValueError("mode cutoff M must be >= 1")
        self.lam = float(lam)
        self.M = int(M)
        self.a = float(a)
        self._zero_mode = zero_mode

        def table(pts):
            return self.value(pts)[:, None, None]

        super().__init__(
            1, 1, table, table,
            domain=RadialDomain(0.1, 6.0, axes=(0, 1)),
            discriminant=lambda pts: self._radii(pts[:, 0], pts[:, 1]))
        if check_positive:
            self._check_positive()

    def _radii(self, u, x):
        return np.hypot(np.asarray(u, dtype=float), np.asarray(x, dtype=float))

    def zero_mode(self, u, x):
        if self._zero_mode is not None:
            return np.asarray(self._zero_mode(u, x), dtype=float)
        return self._log_zero_mode(self._radii(u, x))

    def _log_zero_mode(self, rho):
        return self.a - np.log(rho / self.lam) / (2.0 * np.pi)

    def mode_value(self, m, u, x):
        """The m-th Fourier coefficient V^m(u, x), real: K0(|m| rho)/(2 pi)
        for 0 < |m| <= M and 0 above M."""
        if m == 0:
            return self.zero_mode(u, x)
        rho = self._radii(u, x)
        if abs(m) > self.M:
            return np.zeros_like(rho)
        # times the rounded 1/(2 pi), where value() divides: the Helmholtz
        # residuals that ghlab ov reports are rounding noise of these bits
        return k0(abs(m) * rho) * (1.0 / (2.0 * np.pi))

    def value(self, pts):
        """V(u, x, y) on an (N, 3) batch, summed in ascending |m| order.

        The sum z0 + t_1 + t_2 + ... runs once per distinct (radius rho, y)
        pair of the batch, and each point takes the value of its pair:
        t_m = 2 Re(e^{i m y}) K0(m rho) / (2 pi) depends on (rho, y) only,
        and so does the built-in zero mode z0.  A ``zero_mode=`` function,
        which only the benchmark passes, is a function of (u, x), so then
        each point has its own sum.  Per chunk of modes, one k0 call fills
        the (mode, distinct radius) table and one exp call the (mode,
        distinct y) table, over the sums still running.

        A sum stops after the last mode m of a chunk once
        2 B < spacing(|acc|) / 4, with B = 2 K0(m rho) / (2 pi).  Computed
        K0 does not increase, so |t_m'| <= B for every later m'; the
        factor 2 covers the rounding of k0 and of the term.
        A term below a quarter of acc's spacing (the gap below a power of
        two is half the gap above) rounds acc + t_m' back to acc.  So every
        value has the bits of the full sum at that point alone, whatever
        batch it is evaluated in.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        u, x = pts[:, 0], pts[:, 1]
        rho, rho_of = np.unique(self._radii(u, x), return_inverse=True)
        ys, y_of = np.unique(pts[:, 2], return_inverse=True)
        if self._zero_mode is None:
            pairs, of = np.unique(rho_of * len(ys) + y_of,
                                  return_inverse=True)
            t_rho, t_y = np.divmod(pairs, len(ys))
            acc = self._log_zero_mode(rho)[t_rho]
        else:
            acc = self.zero_mode(u, x).copy()
            t_rho, t_y, of = rho_of, y_of, slice(None)
        out = np.empty_like(acc)
        per = self.M * _VALUE_BLOCK
        for start in range(0, len(acc), per):
            part = slice(start, start + per)
            out[part] = _mode_sums(acc[part], rho, t_rho[part], ys, t_y[part],
                                   self.M)
        return out[of]

    def _check_positive(self):
        rmin, rmax = self.domain.rmin, self.domain.rmax
        rs = np.geomspace(max(rmin, 1e-3), rmax, 24)
        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        ys = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        R, A, Y = np.meshgrid(rs, angles, ys, indexing="ij")
        pts = np.stack([R * np.cos(A), R * np.sin(A), Y], axis=-1)
        vals = self.value(pts.reshape(-1, 3))
        if np.min(vals) <= 0.0:
            raise NotPositive(
                f"V attains {np.min(vals):.4g} <= 0 on the declared domain; "
                "increase the harmonic shift a")

    def helmholtz_residual(self, m, rho):
        """(d^2/drho^2 + (1/rho) d/drho - m^2) V^m at radius rho from the
        source: a float for a scalar rho, an array for an array.

        The identity for the double-precision ``mode_value`` that V is
        summed from, by the 6th-order central stencils of d/drho and
        d^2/drho^2 on the 7 radii rho + k h, h = min(1e-3, rho/4).
        """
        if m == 0:
            raise ValueError("zero mode satisfies the logarithmic equation")
        rho = np.asarray(rho, dtype=float)
        r = np.atleast_1d(rho).ravel()[:, None]
        h = np.minimum(1e-3, r / 4.0)
        stencil = r + h * np.arange(-3, 4)
        d1 = np.array([-1, 9, -45, 0, 45, -9, 1]) / (60.0 * h)
        d2 = np.array([2, -27, 270, -490, 270, -27, 2]) / (180.0 * h ** 2)
        g = self.mode_value(m, stencil, np.zeros_like(stencil))
        res = np.sum((d2 + d1 / r) * g, axis=1) - m * m * g[:, 3]
        return float(res[0]) if rho.ndim == 0 else res.reshape(rho.shape)


def ooguri_vafa(lam, M, a):
    """Construct the periodic family; errors if V is not positive."""
    return PeriodicFourierSolution(lam, M, a)


def ov_total_flux(sol, radius, center=(0.0, 0.0)):
    """Flux of grad V through the full-period Gauss surface
    {|(u,x) - center| = radius} x S^1, which captures the entire periodic
    source for every mode cutoff, on 256 angles x 64 fiber nodes; the normal
    derivative is a central difference at step 1e-6.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    na, ny = 256, 64
    alpha = 2.0 * np.pi * np.arange(na) / na
    ys = 2.0 * np.pi * np.arange(ny) / ny
    A, Y = np.meshgrid(alpha, ys, indexing="ij")
    nrm = np.stack([np.cos(A).ravel(), np.sin(A).ravel(),
                    np.zeros(A.size)], axis=-1)
    base = np.stack([center[0] + radius * np.cos(A).ravel(),
                     center[1] + radius * np.sin(A).ravel(),
                     Y.ravel()], axis=-1)
    area = radius * (2.0 * np.pi / na) * (2.0 * np.pi / ny)
    vplus, vminus = np.split(sol.value(np.concatenate(
        [base + 1e-6 * nrm, base - 1e-6 * nrm])), 2)
    dn = (vplus - vminus) / 2e-6
    if not np.all(np.isfinite(dn)):
        raise QuadratureFailure("non-finite normal derivative on the surface")
    return float(np.sum(dn * area))
