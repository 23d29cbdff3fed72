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

import math
from dataclasses import dataclass

import numpy as np

from . import GHLabError


class DecayError(GHLabError):
    pass


class AliasingDetected(DecayError):
    fault = "numerical"


class InsufficientPoints(DecayError):
    pass


def _field_values(fieldobj, pts):
    if hasattr(fieldobj, "value"):
        return np.asarray(fieldobj.value(pts), dtype=float)
    return np.asarray(fieldobj(pts), dtype=float)


def _spectra(fieldobj, base, M, nodes=256):
    """(rows, nodes) Fourier spectra in the periodic coordinate y over (u, x)
    base rows, from one field call and one FFT along the last axis.

    Trapezoid quadrature over the period 2 pi (exact for band-limited fields
    when ``nodes > 2M``); raises AliasingDetected when, in any row, the
    energy in the cutoff bin exceeds 1e-10 of the total.
    """
    if nodes <= 2 * M:
        raise ValueError("need nodes > 2M to resolve the requested modes")
    base = np.atleast_2d(np.asarray(base, dtype=float))
    u, x = np.repeat(base[:, :2], nodes, axis=0).T
    ys = np.tile(2.0 * math.pi * np.arange(nodes) / nodes, len(base))
    vals = _field_values(fieldobj, np.stack([u, x, ys], axis=-1))
    spec = np.fft.fft(vals.reshape(-1, nodes), axis=-1) / nodes
    total = np.sum(np.abs(spec) ** 2, axis=-1)
    frac = np.abs(spec[:, nodes // 2]) ** 2 / np.where(total > 0, total,
                                                        np.inf)
    if np.max(frac) > 1e-10:
        raise AliasingDetected(
            f"cutoff-bin energy fraction {np.max(frac):.2e}")
    return spec


def fourier_modes(fieldobj, point, M, nodes=256):
    """Modes -M..M of the field at one base point, as {m: coefficient}."""
    spec = _spectra(fieldobj, [point], M, nodes)[0]
    return {m: complex(spec[m]) for m in range(-M, M + 1)}


@dataclass
class ModeFit:
    amplitude: float     # fitted C in C e^{-rate * beta * |m|}
    rate: float
    rms_residual: float
    passed: bool


@dataclass
class DecayReport:
    modes: list
    betas: np.ndarray                 # (N,)
    magnitudes: dict                  # m -> (N,) array
    fits: dict                        # m -> ModeFit

    @property
    def all_passed(self):
        return all(f.passed for f in self.fits.values())

    def to_csv_rows(self):
        rows = []
        for m in self.modes:
            fit = self.fits[m]
            for beta, mag in zip(self.betas, self.magnitudes[m]):
                logm = math.log(mag) if mag > 0 else float("-inf")
                pred = math.log(fit.amplitude) - fit.rate * beta * abs(m)
                rows.append([m, float(beta), float(mag), logm, pred])
        return rows

    @staticmethod
    def csv_header():
        return ["m", "beta", "abs_mode", "log_abs_mode", "fit_pred"]


def decay_fit(fieldobj, point_grid, M, nodes=256, modes=None, rms_limit=0.1):
    """Per-mode log-linear regression of |V^m| against the decay distance
    |(u, x)|, over the grid points at distance >= 0.2 (at least 8 of them).
    A mode passes when its rate lies in [0.9, 1.1] and its rms residual is
    below ``rms_limit``; a mode that is absent (|V^m| floored at 1e-300)
    fits a rate near 0 and fails."""
    pts = np.atleast_2d(np.asarray(point_grid, dtype=float))
    betas = np.linalg.norm(pts, axis=1)
    keep = betas >= 0.2
    pts, betas = pts[keep], betas[keep]
    if pts.shape[0] < 8:
        raise InsufficientPoints(
            f"only {pts.shape[0]} usable points (need 8)")
    modes = list(modes) if modes is not None else list(range(1, M + 1))
    spec = _spectra(fieldobj, pts, M, nodes=nodes)
    # hypot is abs() of a Python complex; np.abs can differ in the last bit
    magnitudes = {m: np.hypot(spec[:, m].real, spec[:, m].imag)
                  for m in modes}
    fits = {}
    for m in modes:
        xs = -betas * abs(m)
        ys = np.log(np.maximum(magnitudes[m], 1e-300))
        A = np.vstack([xs, np.ones_like(xs)]).T
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        resid = ys - A @ coef
        rms = float(np.sqrt(np.mean(resid ** 2)))
        rate = float(coef[0])
        fits[m] = ModeFit(amplitude=float(math.exp(coef[1])),
                          rate=rate, rms_residual=rms,
                          passed=bool(0.9 <= rate <= 1.1 and rms < rms_limit))
    return DecayReport(modes=modes, betas=betas, magnitudes=magnitudes,
                       fits=fits)


@dataclass
class CollapseReport:
    lambdas: list
    sup_distances: list

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


def collapse_distance(family, split_limit, lambdas, grid, nodes=64,
                      beta_fn=None):
    """Sup distance between the rescaled zero mode and the split limit.

    ``family`` maps lambda to a periodic field on (u, x, y); the zero mode
    is extracted at (lam*s, lam*t) and compared with split_limit(s, t) on
    the fixed grid, from one field call per lambda.  With ``beta_fn``, a
    grid point at distance below 0.2 from the discriminant is refused.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if beta_fn is not None:
        d = np.asarray([beta_fn(p) for p in grid], dtype=float)
        if np.min(d) < 0.2:
            from .ghcore import DomainViolation

            raise DomainViolation(
                f"grid point at distance {np.min(d):.3f} < 0.2 "
                "from the discriminant")
    lambdas = sorted(float(v) for v in lambdas)
    sups = []
    for lam in lambdas:
        spec = _spectra(family(lam), lam * grid[:, :2], 0, nodes)
        worst = 0.0
        for v0, p in zip(spec[:, 0].real.tolist(), grid):
            worst = max(worst, abs(v0 - float(split_limit(p))))
        sups.append(worst)
    return CollapseReport(lambdas=lambdas, sup_distances=sups)


def ronkin_collapse(P, lambdas, grid, nodes=64):
    """Per lambda, the sup of |values - limits| of one ``ronkin_grid`` call."""
    from .tropical import ronkin_grid

    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    lambdas = sorted(float(v) for v in lambdas)
    sups = [float(np.max(np.abs(g.values - g.limits), initial=0.0)) for g in
            (ronkin_grid(P, grid, lam, nodes=nodes) for lam in lambdas)]
    return CollapseReport(lambdas=lambdas, sup_distances=sups)


@dataclass
class FiberDiameter:
    length: float          # 2 pi sqrt(V^{-1}) at the point
    rescaled: float        # length / lambda
    predicted: float       # lambda^{-1} 2 pi / sqrt(limit_value)
    ratio: float           # rescaled / predicted


def fiber_diameter(sol, point, lam, limit_value):
    """Fiber circle length at a point, against the collapsed prediction.

    ``limit_value`` is the split-limit coefficient at the rescaled point;
    the prediction is lam^{-1} * 2 pi / sqrt(limit_value), and the ratio
    should sit in [0.5, 2] once lam >= 10 and the decay distance is >= 1.
    """
    v = float(sol.V(np.atleast_2d(np.asarray(point, dtype=float)))[0, 0, 0])
    if v <= 0:
        from .ghcore import DomainViolation

        raise DomainViolation("fiber block must be positive")
    length = 2.0 * math.pi * math.sqrt(1.0 / v)
    rescaled = length / lam
    predicted = 2.0 * math.pi / (lam * math.sqrt(limit_value))
    return FiberDiameter(length=length, rescaled=rescaled,
                         predicted=predicted, ratio=rescaled / predicted)
