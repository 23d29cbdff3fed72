"""Batch front end: experiment orchestration with reproducible outputs.

Every run resolves a config (JSON file merged under explicit flags), embeds
its SHA-256 hash and the tool version in all outputs, prints one PASS/FAIL
line per check, and exits 0 (all pass), 1 (a check failed, or a numerical
error) or 2 (a config, domain or io error).  Outputs are byte-identical for
identical configs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

# A command gives numpy's BLAS and LAPACK only batches of blocks of at most
# 4 x 4, the 32 x 32 eigenproblem of the Gauss-Legendre nodes and 11 x 2
# least-squares fits, all below OpenBLAS's threading thresholds.  Its worker
# pool would start at import and cost about 0.1 s of CPU per command for
# nothing.  A value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import GHLAB_SEED, GHLabError, __version__  # noqa: E402


class ConfigError(Exception):
    pass


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def __post_init__(self):
        # numpy comparisons give np.bool_, which the JSON report cannot hold
        self.passed = bool(self.passed)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        info = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"{status} {self.name}" + (f" ({info})" if info else "")


def _hashable(value):
    # a grid by its exact values: str() of an array rounds to 8 digits and
    # abbreviates above 1000 points, so distinct grids would share a hash
    return value.tolist() if isinstance(value, np.ndarray) else str(value)


def _config_hash(params):
    blob = json.dumps(params, sort_keys=True, default=_hashable).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _require(cond, fieldname, message):
    if not cond:
        raise ConfigError(f"config field '{fieldname}': {message}")


# ---------------------------------------------------------------------------
# field converters: each takes a flag's text or a config-file value alike
# and returns the checked value, or raises ValueError or TypeError
# ---------------------------------------------------------------------------

def _check(cond, message):
    if not cond:
        raise ValueError(message)


def _field(kind, ok=lambda v: True, message="", many=False):
    """Converter applying ``kind`` to the text of a value, or with ``many``
    to each item of a list or comma-separated text; ``ok`` must then hold.

    Converting the text refuses null, booleans and 64.5 for an integer,
    just as the same text given as a flag would be refused; a float must
    be finite.
    """
    def convert(val):
        if many:
            items = val if isinstance(val, list) else str(val).split(",")
            val = [kind(str(v)) for v in items]
        else:
            val = kind(str(val))
        _check(kind is not float or np.all(np.isfinite(val)), "must be finite")
        _check(ok(val), message)
        return val
    return convert


def _count(lo):
    return _field(int, lambda v: v >= lo, f"must be >= {lo}")


_REAL = _field(float)
_ONE_OR_TWO = _field(int, lambda v: v in (1, 2), "must be 1 or 2")
_POSITIVE = _field(float, lambda v: v > 0, "must be positive")
_RADII = _field(float, lambda v: len(set(v)) == len(v) == 2 and min(v) > 0,
                "expected two distinct positive radii", many=True)


def _range(val):
    """'lo:hi:step' as the grid np.linspace(lo, hi, n)."""
    parts = str(val).split(":")
    _check(len(parts) == 3, "expected lo:hi:step")
    lo, hi, step = (float(p) for p in parts)
    _check(math.isfinite(lo) and math.isfinite(hi), "must be finite")
    _check(step > 0, "step must be positive")
    _check(hi > lo, "hi must exceed lo")
    n = int(round((hi - lo) / step)) + 1
    _check(n >= 2, "resolution must be >= 2 per axis")
    return np.linspace(lo, hi, n)


def _poly(max_vars):
    def convert(val):
        from .tropical import parse_laurent

        P = parse_laurent(str(val))
        _check(P.nvars <= max_vars,
               f"has {P.nvars} variables, at most {max_vars} allowed")
        return P
    return convert


def _path(val):
    _check(val is None or isinstance(val, str), "expected a path or null")
    return val


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows, meta):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# ghlab {meta['version']} config={meta['configHash']}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v
                             for v in row])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _closedness(name, rep, details):
    """The check of a ``verify_closed`` report.  A step too coarse for the
    tolerance FAILs it, naming the Richardson disagreement and its point."""
    if rep.extra["stepTooLarge"]:
        details["richardson"] = f"{rep.extra['richardson']:.2e}"
        details["at"] = [f"{c:.4f}" for c in rep.extra["richardsonPoint"]]
    return CheckResult(name, rep.passed, details)


def _cmd_verify_flat(p, meta):
    """Flat-metric identity suite."""
    from .ghcore import chern_flux, verify_closed, verify_compat
    from .lattice import LatticeSimplex, wall_complex
    from .solutions import flat_gh_solution, flat_solution

    n = p["n"]
    rng = np.random.default_rng(p["seed"])
    checks = []
    mags = rng.uniform(0.5, 2.0, size=(p["samples"], n + 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(p["samples"], n + 1))
    flat = flat_solution(n, mags * np.exp(1j * phases))
    worst = float(np.max(np.abs(np.linalg.det(flat.V)
                                - np.linalg.det(flat.W))))
    checks.append(CheckResult("flat-det-identity", worst < 1e-12,
                              {"maxResidual": f"{worst:.3e}",
                               "samples": p["samples"]}))
    if n == 1:
        sol = flat_gh_solution()
        pts = np.stack([flat.u[:, 0], flat.eta.real, flat.eta.imag], axis=1)
        rep = verify_closed(sol, pts, step=p["step"], tolerance=p["tol"])
        checks.append(_closedness("flat-closedness", rep, {
            "dF": f"{rep.extra['dF']:.3e}",
            "dOmega": f"{rep.extra['dOmega']:.3e}"}))
        comp = verify_compat(sol, pts, tolerance=1e-10)
        checks.append(CheckResult("flat-compat", comp.passed,
                                  {"maxResidual": f"{comp.max_residual:.3e}"}))
        wc = wall_complex(LatticeSimplex(np.eye(2, dtype=int).tolist()))
        weight = np.array(wc.walls[0].weight, dtype=float)
        fluxes = [chern_flux(sol, [0.0], r, nodes=(p["grid"], 2 * p["grid"]))
                  for r in p["flux_radii"]]
        err = max(float(np.max(np.abs(f - weight))) for f in fluxes)
        checks.append(CheckResult("flat-chern-flux", err < 1e-3,
                                  {"maxError": f"{err:.3e}",
                                   "weight": weight.tolist()}))
        spread = float(np.max(np.abs(fluxes[0] - fluxes[1])))
        checks.append(CheckResult("flat-flux-radius-independent",
                                  spread < 5e-3,
                                  {"spread": f"{spread:.3e}"}))
    return checks


def _cmd_verify_taubnut(p, meta):
    """Taub-NUT harmonicity suite."""
    from .ghcore import verify_closed, verify_compat
    from .solutions import taub_nut, taub_nut_laplacian

    rng = np.random.default_rng(p["seed"])
    pts = rng.normal(size=(p["samples"], 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.5, 2.0, size=(p["samples"], 1))
    lap = float(np.max(np.abs(taub_nut_laplacian(p["ell"], pts))))
    checks = [CheckResult("taubnut-laplacian", lap < 1e-8,
                          {"maxResidual": f"{lap:.3e}"})]
    sol = taub_nut(p["ell"], p["a"])
    keep = pts[sol.domain(pts)]
    # a check over no points would pass vacuously
    _require(len(keep), "samples", f"none of the {p['samples']} samples "
             f"lies in the domain {sol.domain.__doc__}")
    sub = keep[:min(len(keep), 64)]
    rep = verify_closed(sol, sub, step=1e-4, tolerance=p["tol"])
    checks.append(_closedness("taubnut-closedness", rep,
                              {"maxResidual": f"{rep.max_residual:.3e}"}))
    comp = verify_compat(sol, keep, tolerance=1e-12)
    checks.append(CheckResult("taubnut-compat", comp.passed,
                              {"maxResidual": f"{comp.max_residual:.3e}"}))
    return checks


def _cmd_ov(p, meta):
    """Periodic Fourier-Bessel family checks."""
    # modes above --modes are 0 and have a residual of exactly 0
    _require(p["helmholtz_modes"] <= p["modes"], "helmholtz_modes",
             "need helmholtz_modes <= modes")
    from .solutions import ooguri_vafa, ov_total_flux

    sol = ooguri_vafa(1.0, p["modes"], p["a"])
    checks = []
    if p["csv"]:
        mshow = min(p["modes"], 8)
        header = ["u", "x", "y", "V"] + [f"V{m}" for m in range(1, mshow + 1)]
        # the 8 x 8 (r, y) grid in row order, on the line x = 0
        u = np.repeat(np.linspace(0.25, 2.0, 8), 8)
        y = np.tile(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False), 8)
        x = np.zeros_like(u)
        # every mode has coefficient 1, so each V^m is real
        cols = [u, x, y, sol.value(np.stack([u, x, y], axis=-1))] + [
            sol.mode_value(m, u, x) for m in range(1, mshow + 1)]
        _write_csv(p["csv"], header, np.stack(cols, axis=-1).tolist(), meta)
    # the Helmholtz equation of each mode V^m at three radii
    worst = max(float(np.max(np.abs(sol.helmholtz_residual(
        m, [0.1, 0.5, 2.0])))) for m in range(1, p["helmholtz_modes"] + 1))
    checks.append(CheckResult("ov-helmholtz", worst < 1e-8,
                              {"maxResidual": f"{worst:.3e}",
                               "modes": p["helmholtz_modes"]}))
    fluxes = [ov_total_flux(sol, r) for r in p["flux_radii"]]
    err = max(abs(f + 2.0 * math.pi) / (2.0 * math.pi) for f in fluxes)
    checks.append(CheckResult("ov-total-flux", err < 0.01,
                              {"relError": f"{err:.3e}",
                               "fluxes": [f"{f:.4f}" for f in fluxes]}))
    spread = abs(fluxes[0] - fluxes[1]) / (2.0 * math.pi)
    checks.append(CheckResult("ov-flux-radius-independent", spread < 5e-3,
                              {"spread": f"{spread:.3e}"}))
    return checks


def _cmd_ronkin(p, meta):
    """Ronkin function grid sweep."""
    from .tropical import LaurentPoly, ronkin_grid, tropical_limit

    P = p["poly"]
    grid = ronkin_grid(P, p["range"][:, None], lam=p["lam"], kappa=p["kappa"])
    vals = grid.values
    if p["csv"]:
        cols = [p["range"], np.full_like(vals, p["lam"]), vals, grid.limits,
                np.abs(vals - grid.limits)]
        _write_csv(p["csv"], ["t1", "lambda", "N_lambda", "N_inf", "abs_err"],
                   np.stack(cols, axis=-1).tolist(), meta)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    convex = float(np.min(second, initial=0.0))
    checks = [CheckResult("ronkin-convexity", convex > -1e-5,
                          {"minSecondDifference": f"{convex:.3e}",
                           "points": len(vals)})]
    # always-valid lower bound: N dominates the extreme Newton-polytope
    # terms (Jensen), the first and last of the sorted terms (one for a
    # monomial); the log(#terms) two-sided envelope needs |c| = 1
    ends = LaurentPoly.make({P.terms[0], P.terms[-1]})
    vertex = tropical_limit(ends, p["range"][:, None], kappa=p["kappa"])
    low = float(np.min(vals - vertex, initial=0.0))
    ok = low >= -1e-3
    detail = {"minVertexGap": f"{low:.4f}"}
    if all(abs(abs(c) - 1.0) < 1e-12 for _, c in P.terms):
        tropical = tropical_limit(P, p["range"][:, None], kappa=p["kappa"])
        slack = p["kappa"] * math.log(len(P.terms)) + 1e-3
        spread = float(np.max(np.abs(vals - tropical), initial=0.0))
        ok = ok and spread <= slack
        detail["envelopeSpread"] = f"{spread:.4f}"
        detail["allowed"] = f"{slack:.4f}"
    checks.append(CheckResult("ronkin-tropical-envelope", ok, detail))
    return checks


def _fiber_windings(P, x, tol):
    """Winding numbers of theta -> P(e^{x + i theta}) in the last angle.

    One per grid value of theta_1 (two variables) and per log-modulus
    x_l -+ tol of the last variable; all equal when no zero of P lies within
    tol of the fiber, since the winding counts the zeros inside the circle.
    """
    from .tropical import _LN2, LaurentPoly, _scale

    # where the terms c e^{<e, x>} may leave the float range, P(e^x u) 2^-k
    # takes the place of P(z), a polynomial in u at x = 0 of the same winding;
    # terms that underflow drop out
    logs = [math.log(abs(c)) + np.dot(e, x) for e, c in P.terms]
    if k := _scale(logs, 1):
        P = LaurentPoly.make([(e, s) for (e, c), y in zip(P.terms, logs)
                              if (s := c / abs(c) * math.exp(y - k * _LN2))])
        x = np.zeros_like(x)
    t = 2.0 * np.pi * np.arange(256) / 256
    zl = np.exp((x[-1] + np.array([-tol, tol]))[:, None] + 1j * t)
    if P.nvars == 1:
        z = zl[..., None]
    else:
        z1 = np.broadcast_to(np.exp(x[0] + 1j * t)[None, :, None],
                             (2, 256, 256))
        z = np.stack([z1, np.broadcast_to(zl[:, None, :], z1.shape)], axis=-1)
    vals = P.evaluate(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = np.angle(np.roll(vals, -1, axis=-1) / vals).sum(axis=-1)
    return np.rint(turns / (2.0 * np.pi))


def _cmd_amoeba(p, meta):
    """Amoeba membership query."""
    from .tropical import _amoeba_gap

    P, x, tol = p["poly"], np.asarray(p["point"]), p["tol"]
    _require(len(x) == P.nvars, "point",
             "length must match the number of variables")
    gap, w = _amoeba_gap(P, x, tol=tol)
    inside = bool(gap <= tol)
    details = {"point": p["point"], "contains": inside}
    if inside:
        # certificate: a zero of P on the fiber, to tol in log-modulus; P's
        # terms at the witness (log|z|, arg z), each scaled by the largest
        ok = w is not None
        if ok:
            c, e = P.coefficients(), P.exponents()
            L = np.log(np.abs(c)) + e @ w[0]
            L = L - np.max(L)
            terms = c / np.abs(c) * np.exp(L + 1j * (e @ w[1]))
            res = float(abs(np.sum(terms)) / np.sum(np.exp(L)))
            off = float(np.max(np.abs(w[0] - x)))
            ok = off <= tol and res <= 1e-8
            details["witnessResidual"] = f"{res:.1e}"
    else:
        # certificate: the number of zeros inside the last circle is the
        # same on every fiber circle, so none of them crosses it
        windings = _fiber_windings(P, x, tol)
        ok = bool(np.all(windings == windings.flat[0]))
        details["winding"] = f"{windings.flat[0]:.0f}" if ok else "varies"
    return [CheckResult("amoeba-membership", ok, details)]


def _cmd_legendre(p, meta):
    """Partial Legendre transform checks."""
    from .legendre import (SplitMASolution, block_determinant_residual,
                           model_potential, verify_classical_ma)

    sol = SplitMASolution.from_potential(
        model_potential(p["family"], p["b"]), 1, 1)
    axis = np.linspace(-0.5, 0.5, p["grid"])
    g1, g2 = np.meshgrid(axis, axis)
    rep = verify_classical_ma(sol, np.stack([g1.ravel(), g2.ravel()], -1),
                              tolerance=p["tol"])
    checks = [CheckResult("legendre-det-hessian", rep.passed,
                          {"maxResidual": f"{rep.max_residual:.3e}",
                           "family": p["family"]})]
    rng = np.random.default_rng(p["seed"])
    shapes = {}
    shift = {k: 2.0 * np.eye(k) for k in (1, 2, 3)}
    for _ in range(p["samples"]):
        n, l = rng.integers(1, 4, size=2)
        A = rng.uniform(-1, 1, size=(n, n)) + shift[n]
        D = rng.uniform(-1, 1, size=(l, l)) + shift[l]
        B = rng.uniform(-1, 1, size=(n, l))
        C = rng.uniform(-1, 1, size=(l, n))
        shapes.setdefault((n, l), []).append((A, B, C, D))
    # one stacked evaluation per block shape (n, l)
    worst = max(float(np.max(block_determinant_residual(
        *map(np.stack, zip(*blocks))))) for blocks in shapes.values())
    checks.append(CheckResult("legendre-block-identity", worst < 1e-10,
                              {"maxResidual": f"{worst:.3e}",
                               "samples": p["samples"]}))
    return checks


def _cmd_holonomy(p, meta):
    """Loop holonomy of the singular family."""
    from .legendre import beta_holonomy, circle_loop, singular_2d

    sol = singular_2d(h=p["h"])
    if p["loop_file"]:
        loop = _load_loop(p["loop_file"])
    else:
        loop = circle_loop(radius=p["radius"], segments=p["segments"])
    rep = beta_holonomy(sol, loop)
    checks = [CheckResult("holonomy-charge", rep.max_abs_error < 1e-6,
                          {"holonomy": f"{rep.holonomy[0, 0]:.8f}",
                           "windings": rep.windings})]
    # a loop of winding 0 about the singular point bounds a disk on which
    # beta is closed, so its holonomy must vanish
    inner = circle_loop(center=(0.5 * p["radius"], 0.0),
                        radius=0.25 * p["radius"], segments=p["segments"])
    zero = float(beta_holonomy(sol, inner).holonomy[0, 0])
    checks.append(CheckResult("holonomy-contractible", abs(zero) < 1e-6,
                              {"holonomy": f"{zero:.3e}"}))
    if p["out"]:
        _write_json(p["out"], {
            "loop": rep.loop.tolist(), "windings": rep.windings,
            "holonomyMatrix": rep.holonomy.tolist(),
            "expectedMatrix": rep.expected.tolist(),
            "maxAbsError": rep.max_abs_error, **meta})
    return checks


def _load_loop(path):
    """The (N, 2) vertex array under "loop" in a JSON loop file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"loop file: {exc}") from None
    _require(isinstance(data, dict) and "loop" in data, "loop_file",
             "expected a JSON object with a 'loop' array")
    try:
        loop = np.asarray(data["loop"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'loop_file': {exc}") from None
    _require(loop.ndim == 2 and loop.shape[1] == 2 and len(loop) >= 3,
             "loop_file", "loop must be a list of at least 3 (s, t) vertices")
    _require(bool(np.all(np.isfinite(loop))), "loop_file",
             "loop vertices must be finite")
    return loop


def _cmd_decay(p, meta):
    """Exponential decay fit."""
    from .decay import decay_fit
    from .solutions import ooguri_vafa

    _require(p["nodes"] > 2 * p["modes"], "nodes", "need nodes > 2*modes")
    _require(all(1 <= m <= p["modes"] for m in p["gate_modes"]),
             "gate_modes", "modes out of range")
    sol = ooguri_vafa(1.0, p["modes"], p["a"])
    rs = p["rrange"]
    grid = np.stack([rs, np.zeros_like(rs)], axis=-1)
    rep = decay_fit(sol, grid, M=p["modes"], nodes=p["nodes"],
                    modes=p["gate_modes"], rms_limit=p["rms_limit"])
    checks = [CheckResult(
        "decay-slope-band", rep.all_passed,
        {"rates": {m: f"{rep.fits[m].rate:.4f}" for m in rep.modes}})]
    if p["csv"]:
        rows = []
        for m in rep.modes:
            fit = rep.fits[m]
            for beta, mag in zip(rep.betas, rep.magnitudes[m]):
                rows.append([m, float(beta), float(mag),
                             math.log(mag) if mag > 0 else -math.inf,
                             math.log(fit.amplitude) - fit.rate * beta * m])
        _write_csv(p["csv"], ["m", "beta", "abs_mode", "log_abs_mode",
                              "fit_pred"], rows, meta)
    if p["svg"]:
        from .svgplot import emit_svg

        # a log axis can show only the modes positive on the whole grid
        left = [m for m in rep.modes if not np.all(rep.magnitudes[m] > 0)]
        shown = [m for m in rep.modes if m not in left]
        if left:
            print(f"decay: |V^m| is not positive on the grid for m in {left}; "
                  + ("the plot leaves them out" if shown
                     else f"{p['svg']} was not written"), file=sys.stderr)
        if shown:
            series = [(f"m={m}", list(rep.betas), list(rep.magnitudes[m]))
                      for m in shown]
            emit_svg(series, "mode decay", "beta", "|V^m|", p["svg"])
    return checks


def _cmd_collapse(p, meta):
    """Collapse surrogate measurements."""
    from .bessel import k0_integral
    from .decay import fiber_diameter, ronkin_collapse
    from .solutions import PeriodicFourierSolution

    checks = []
    rep_r = ronkin_collapse(p["poly"], p["lambdas"], p["trange"][:, None],
                            nodes=p["nodes"])
    checks.append(CheckResult(
        "collapse-ronkin-nonincreasing", rep_r.non_increasing,
        {"supDistances": [f"{v:.5f}" for v in rep_r.sup_distances]}))

    def split_limit(q):
        return p["a"] - math.log(math.hypot(q[0], q[1])) / (2.0 * math.pi)

    # sup over the grid and the circle of |V_lam(lam q, y) - V_inf(q)|: the
    # mode sum (1/pi) sum_m cos(m y) K0(m lam |q|), largest at y = 0 and
    # the smallest |q|
    grid = [(0.5, 0.0), (1.0, 0.5), (1.5, -0.5)]
    ys = 2.0 * np.pi * np.arange(p["nodes"]) / p["nodes"]
    qmin = min(math.hypot(*q) for q in grid)
    sups, gap = [], 0.0
    for lam in p["lambdas"]:
        sol = PeriodicFourierSolution(lam, 5, p["a"], check_positive=False)
        sups.append(max(float(np.max(np.abs(sol.value(np.array(
            [[lam * q[0], lam * q[1], y] for y in ys])) - split_limit(q))))
            for q in grid))
        # an independent K0: the trapezoid rule on its integral
        exact = float(np.sum(k0_integral(
            np.arange(1, sol.M + 1) * lam * qmin))) / math.pi
        gap = max(gap, abs(sups[-1] - exact))
    ok = gap <= 1e-12 and all(b <= a for a, b in zip(sups, sups[1:]))
    checks.append(CheckResult(
        "collapse-field-nonincreasing", ok,
        {"supDistances": [f"{v:.3e}" for v in sups],
         "besselGap": f"{gap:.1e}"}))
    lam = max(10.0, p["lambdas"][-1])
    sol = PeriodicFourierSolution(lam, 5, p["a"], check_positive=False)
    point = (1.2 * lam, 0.0, 0.3)
    fd = fiber_diameter(sol, point, lam, limit_value=split_limit((1.2, 0.0)))
    checks.append(CheckResult("collapse-fiber-diameter",
                              0.5 <= fd.ratio <= 2.0,
                              {"ratio": f"{fd.ratio:.4f}", "lambda": lam}))
    if p["csv"]:
        _write_csv(p["csv"], ["lambda", "sup_distance"],
                   zip(rep_r.lambdas, rep_r.sup_distances), meta)
    return checks


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

# every field of every subcommand, declared once as name -> (default,
# converter); the parser, the defaults, config-file merging and the checks
# of single fields are all derived from these tables (the checks across
# fields are the first lines of the ov, amoeba and decay runners).
_COMMON = {"seed": (GHLAB_SEED, _count(0)), "out": (None, _path)}

_COMMANDS = {
    "verify-flat": {"n": (1, _ONE_OR_TWO), "grid": (32, _count(2)),
                    "samples": (200, _count(1)), "step": (1e-4, _POSITIVE),
                    "tol": (1e-6, _POSITIVE),
                    "flux_radii": ("0.4,0.7", _RADII)},
    "verify-taubnut": {"ell": (2.0, _POSITIVE),
                       "a": (1.0, _field(float, lambda v: v >= 0,
                                         "must be nonnegative")),
                       "samples": (1000, _count(1)), "tol": (1e-6, _POSITIVE)},
    "ov": {"modes": (40, _count(1)), "a": (5.0, _REAL),
           "helmholtz_modes": (10, _count(1)),
           "flux_radii": ("0.3,0.5", _RADII), "csv": (None, _path)},
    "ronkin": {"poly": ("1+z", _poly(1)), "range": ("-3:3:0.1", _range),
               "kappa": (1, _ONE_OR_TWO), "lam": (1.0, _POSITIVE),
               "csv": (None, _path)},
    "amoeba": {"poly": ("1+z1+z2", _poly(2)),
               "point": ("0,0", _field(float, many=True)),
               "tol": (1e-6, _POSITIVE)},
    "legendre": {"family": ("harmonic", _field(
                     str, lambda v: v in ("quadratic", "cross", "harmonic"),
                     "choose from quadratic, cross, harmonic")),
                 "b": (0.5, _REAL), "grid": (9, _count(2)),
                 "samples": (1000, _count(1)), "tol": (1e-6, _POSITIVE)},
    "holonomy": {"loop_file": (None, _path), "radius": (1.0, _POSITIVE),
                 "segments": (64, _count(3)), "h": (1.0, _REAL)},
    "decay": {"modes": (8, _count(1)), "a": (4.0, _REAL),
              "rrange": ("0.5:3:0.25", _range), "nodes": (128, _count(1)),
              "gate_modes": ("4,5,6,7,8", _field(int, bool, "no modes",
                                                 many=True)),
              "rms_limit": (0.1, _POSITIVE), "csv": (None, _path),
              "svg": (None, _path)},
    "collapse": {"poly": ("1+z+0.25*z^2", _poly(1)),
                 "lambdas": ("1,5,25", _field(
                     float, lambda v: len(v) > 1 and min(v) > 0
                     and v == sorted(set(v)), "expected two or more "
                     "positive, strictly ascending lambdas", many=True)),
                 "trange": ("-2:2:0.25", _range), "nodes": (128, _count(16)),
                 "a": (4.0, _POSITIVE), "csv": (None, _path)},
}

_RUNNERS = {
    "verify-flat": _cmd_verify_flat,
    "verify-taubnut": _cmd_verify_taubnut,
    "ov": _cmd_ov,
    "ronkin": _cmd_ronkin,
    "amoeba": _cmd_amoeba,
    "legendre": _cmd_legendre,
    "holonomy": _cmd_holonomy,
    "decay": _cmd_decay,
    "collapse": _cmd_collapse,
}


def _flag(key):
    return "--" + key.replace("_", "-")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ghlab",
        description="numerical laboratory for fibered Ricci-flat model "
                    "metrics, Ronkin functions and Legendre transforms")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")
    for cmd, table in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=_RUNNERS[cmd].__doc__)
        sp.add_argument("--config", help="JSON config file (flags override)")
        for key, (default, _) in {**table, **_COMMON}.items():
            sp.add_argument(_flag(key), help=f"default: {default}")
    return ap


def _resolve_config(args):
    """Defaults, then the config file, then the flags, each value converted
    and checked by its field's converter."""
    cmd = args.command
    fields = {**_COMMANDS[cmd], **_COMMON}
    raw = {key: default for key, (default, _) in fields.items()}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file: top level must be an object")
        for key, val in loaded.items():
            norm = key.replace("-", "_")
            if norm == "command":
                if val != cmd:
                    raise ConfigError(
                        f"config field 'command': file says {val!r}, "
                        f"invoked {cmd!r}")
                continue
            if norm not in raw:
                raise ConfigError(f"config field '{key}': unknown field")
            raw[norm] = val
    raw.update({key: getattr(args, key) for key in fields
                if getattr(args, key) is not None})
    params = {}
    for key, val in raw.items():
        try:
            params[key] = fields[key][1](val)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"config field '{key}': {exc}") from None
    return params


def _merge_negative_values(argv):
    """Join each flag with a following value that starts with a minus sign
    ('--range -3:3:0.1'), which argparse takes for an option."""
    flags = {"--config"} | {_flag(key) for key in _COMMON} | {
        _flag(key) for table in _COMMANDS.values() for key in table}
    out = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    ap = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(_merge_negative_values(argv))
    if not args.command:
        ap.print_help()
        return 2
    cmd = args.command
    try:
        params = _resolve_config(args)
        hash_src = {k: v for k, v in params.items()
                    if k not in ("out", "csv", "svg")}
        meta = {"version": __version__, "configHash": _config_hash(hash_src)}
        checks = _RUNNERS[cmd](params, meta)
        if params["out"] and cmd != "holonomy":
            _write_json(params["out"], {
                "command": cmd, **meta,
                "checks": [{"name": c.name, "pass": c.passed,
                            "details": c.details} for c in checks]})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GHLabError as exc:
        print(f"{exc.fault} error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1 if exc.fault == "numerical" else 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    for c in checks:
        print(c.line())
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
