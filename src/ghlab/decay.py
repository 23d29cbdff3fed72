"""Large-scale degeneration probes: Fourier modes, decay fits, collapse.

The exponential-decay probe regresses log|V^m| against -beta(u, x) |m| per
mode and grades the fitted rate against the band [0.9, 1.1].  Note the
algebraic prefactor sqrt(pi/(2|m| r)) of the cylinder-harmonic closed form
biases the fitted rate upward by roughly 1/(2 m r-bar): at m = 1 on
r in [0.5, 3] the true regression slope is 1.29, and the band is only
meaningful for m >= 4 there.  The collapse surrogate is the sup distance,
on a fixed compact grid at distance >= 0.2 from the discriminant, between
the rescaled zero mode and the split limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import GHLabError
from .ghcore import DomainViolation
from .tropical import ronkin_rescaled, tropical_limit


class DecayError(GHLabError):
    pass


class AliasingDetected(DecayError):
    pass


class InsufficientPoints(DecayError):
    pass


def _field_values(fieldobj, pts):
    if hasattr(fieldobj, "value"):
        return np.asarray(fieldobj.value(pts), dtype=float)
    return np.asarray(fieldobj(pts), dtype=float)


def fourier_modes(fieldobj, point, M, nodes=256, period=2.0 * math.pi,
                  alias_tol=1e-10):
    """Fourier coefficients in the periodic coordinate at one base point.

    Trapezoid quadrature over one period (exact for band-limited fields when
    ``nodes > 2M``); raises AliasingDetected when the energy in the cutoff
    bin exceeds ``alias_tol`` of the total.
    """
    if nodes <= 2 * M:
        raise ValueError("need nodes > 2M to resolve the requested modes")
    u, x = float(point[0]), float(point[1])
    ys = period * np.arange(nodes) / nodes
    pts = np.stack([np.full(nodes, u), np.full(nodes, x), ys], axis=-1)
    vals = _field_values(fieldobj, pts)
    spec = np.fft.fft(vals) / nodes
    total = float(np.sum(np.abs(spec) ** 2))
    cutoff = float(np.abs(spec[nodes // 2]) ** 2)
    if total > 0 and cutoff / total > alias_tol:
        raise AliasingDetected(
            f"cutoff-bin energy fraction {cutoff / total:.2e}")
    out = {0: complex(spec[0])}
    for m in range(1, M + 1):
        out[m] = complex(spec[m])
        out[-m] = complex(spec[-m % nodes])
    return out


def synthesize(modes, period=2.0 * math.pi):
    """Inverse of fourier_modes: a (pts -> values) callable from mode dict."""
    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        y = pts[:, 2]
        out = np.zeros(pts.shape[0], dtype=complex)
        for m, c in sorted(modes.items(), key=lambda kv: abs(kv[0])):
            out += c * np.exp(2j * math.pi * m * y / period)
        return out.real
    return fn


@dataclass
class ModeFit:
    mode: int
    amplitude: float | None     # fitted C in C e^{-rate * beta * |m|}
    rate: float | None
    rms_residual: float | None
    passed: bool
    skipped: bool = False


@dataclass
class DecayReport:
    lam: float
    modes: list
    betas: np.ndarray                 # (N,)
    magnitudes: dict                  # m -> (N,) array
    fits: dict                        # m -> ModeFit
    slope_band: tuple
    rms_limit: float

    @property
    def all_passed(self):
        return all(f.passed for f in self.fits.values())

    def to_csv_rows(self):
        rows = []
        for m in self.modes:
            fit = self.fits[m]
            for beta, mag in zip(self.betas, self.magnitudes[m]):
                logm = math.log(mag) if mag > 0 else float("-inf")
                pred = (math.log(fit.amplitude) - fit.rate * beta * abs(m)
                        if not fit.skipped else float("nan"))
                rows.append([m, float(beta), float(mag), logm, pred])
        return rows

    @staticmethod
    def csv_header():
        return ["m", "beta", "abs_mode", "log_abs_mode", "fit_pred"]

    def to_json(self):
        return json.dumps({
            "lambda": self.lam,
            "slopeBand": list(self.slope_band),
            "rmsLimit": self.rms_limit,
            "modes": [{
                "m": m,
                "amplitude": self.fits[m].amplitude,
                "rate": self.fits[m].rate,
                "rmsResidual": self.fits[m].rms_residual,
                "skipped": self.fits[m].skipped,
                "pass": self.fits[m].passed} for m in self.modes]},
            sort_keys=True)


def decay_fit(fieldobj, point_grid, M, lam=1.0, beta_fn=None, nodes=256,
              modes=None, slope_band=(0.9, 1.1), rms_limit=0.1,
              min_points=8, floor=1e-12, min_beta=0.2):
    """Per-mode log-linear regression of |V^m| against the decay distance."""
    pts = np.atleast_2d(np.asarray(point_grid, dtype=float))
    if beta_fn is None:
        betas = np.linalg.norm(pts, axis=1)
    else:
        betas = np.asarray([beta_fn(p) for p in pts], dtype=float)
    keep = betas >= min_beta
    pts, betas = pts[keep], betas[keep]
    if pts.shape[0] < min_points:
        raise InsufficientPoints(
            f"only {pts.shape[0]} usable points (need {min_points})")
    modes = list(modes) if modes is not None else list(range(1, M + 1))
    mode_table = {p_idx: fourier_modes(fieldobj, pts[p_idx], M, nodes=nodes)
                  for p_idx in range(pts.shape[0])}
    magnitudes = {m: np.array([abs(mode_table[i][m])
                               for i in range(pts.shape[0])])
                  for m in modes}
    fits = {}
    for m in modes:
        mags = magnitudes[m]
        if np.all(mags < floor):
            fits[m] = ModeFit(mode=m, amplitude=None, rate=None,
                              rms_residual=None, passed=True, skipped=True)
            continue
        xs = -betas * abs(m)
        ys = np.log(np.maximum(mags, 1e-300))
        A = np.vstack([xs, np.ones_like(xs)]).T
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        resid = ys - A @ coef
        rms = float(np.sqrt(np.mean(resid ** 2)))
        rate = float(coef[0])
        fits[m] = ModeFit(mode=m, amplitude=float(math.exp(coef[1])),
                          rate=rate, rms_residual=rms,
                          passed=bool(slope_band[0] <= rate <= slope_band[1]
                                      and rms < rms_limit))
    return DecayReport(lam=lam, modes=modes, betas=betas,
                       magnitudes=magnitudes, fits=fits,
                       slope_band=slope_band, rms_limit=rms_limit)


@dataclass
class CollapseReport:
    lambdas: list
    sup_distances: list
    grid: np.ndarray
    norm: str
    fiber_diameters: dict = field(default_factory=dict)

    @property
    def non_increasing(self):
        return all(b <= a + 1e-6 for a, b in
                   zip(self.sup_distances, self.sup_distances[1:]))

    def to_csv_rows(self):
        return [[lam, sup] for lam, sup in
                zip(self.lambdas, self.sup_distances)]

    @staticmethod
    def csv_header():
        return ["lambda", "sup_distance"]

    def to_json(self):
        return json.dumps({
            "lambdas": list(map(float, self.lambdas)),
            "supDistances": list(map(float, self.sup_distances)),
            "nonIncreasing": self.non_increasing,
            "norm": self.norm,
            "fiberDiameters": {str(k): v for k, v in
                               self.fiber_diameters.items()}}, sort_keys=True)


def collapse_distance(family, split_limit, lambdas, grid, nodes=64,
                      beta_fn=None, min_beta=0.2):
    """Sup distance between the rescaled zero mode and the split limit.

    ``family`` maps lambda to a periodic field on (u, x, y); the zero mode
    is extracted at (lam*s, lam*t) and compared with split_limit(s, t) on
    the fixed grid.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if beta_fn is not None:
        d = np.asarray([beta_fn(p) for p in grid], dtype=float)
        if np.min(d) < min_beta:
            raise DomainViolation(
                f"grid point at distance {np.min(d):.3f} < {min_beta} "
                "from the discriminant")
    lambdas = sorted(float(v) for v in lambdas)
    sups = []
    for lam in lambdas:
        worst = 0.0
        fieldobj = family(lam)
        for p in grid:
            v0 = fourier_modes(fieldobj, (lam * p[0], lam * p[1]), 0,
                               nodes=nodes)[0].real
            want = float(split_limit(p))
            worst = max(worst, abs(v0 - want))
        sups.append(worst)
    return CollapseReport(
        lambdas=lambdas, sup_distances=sups, grid=grid,
        norm="sup on fixed compact grid at distance >= "
             f"{min_beta} from the discriminant")


def ronkin_collapse(P, lambdas, grid, kappa=1, nodes=64):
    """Rescaled-Ronkin convergence to the coefficient-free tropical limit."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    lambdas = sorted(float(v) for v in lambdas)
    sups = []
    for lam in lambdas:
        worst = 0.0
        for t in grid:
            n = ronkin_rescaled(P, t, lam, nodes=nodes, kappa=kappa)
            tl = tropical_limit(P, t, kappa=kappa, include_coefficients=False)
            worst = max(worst, abs(n - tl))
        sups.append(worst)
    return CollapseReport(lambdas=lambdas, sup_distances=sups, grid=grid,
                          norm="sup of |N(lam t)/lam - PL limit| on the grid")


@dataclass
class FiberDiameter:
    length: float          # 2 pi sqrt(V^{-1}) at the point
    rescaled: float        # length / lambda
    predicted: float | None
    ratio: float | None


def fiber_diameter(sol, point, lam, limit_value=None):
    """Fiber circle length at a point, against the collapsed prediction.

    ``limit_value`` is the split-limit coefficient at the rescaled point;
    the prediction is lam^{-1} * 2 pi / sqrt(limit), and the ratio should
    sit in [0.5, 2] once lam >= 10 and the decay distance is >= 1.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    if hasattr(sol, "V"):
        v = float(np.asarray(sol.V(pts))[0].reshape(-1)[0])
    else:
        v = float(_field_values(sol, pts)[0])
    if v <= 0:
        raise DomainViolation("fiber block must be positive")
    length = 2.0 * math.pi * math.sqrt(1.0 / v)
    rescaled = length / lam
    predicted = ratio = None
    if limit_value is not None:
        predicted = 2.0 * math.pi / (lam * math.sqrt(limit_value))
        ratio = rescaled / predicted
    return FiberDiameter(length=length, rescaled=rescaled,
                         predicted=predicted, ratio=ratio)
