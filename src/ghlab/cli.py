"""Batch front end: experiment orchestration with reproducible outputs.

Every run resolves a config (JSON file merged under explicit flags), embeds
its SHA-256 hash and the tool version in all outputs, prints one PASS/FAIL
line per check, and exits 0 (all pass), 1 (a check failed) or 2 (bad
config/IO).  Outputs are byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import GHLAB_SEED, GHLabError, __version__


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


@dataclass
class RunConfig:
    """A resolved run: the command plus its validated parameters."""
    command: str
    params: dict

    @property
    def seed(self):
        return self.params["seed"]


def _config_hash(params):
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _require(cond, fieldname, message):
    if not cond:
        raise ConfigError(f"config field '{fieldname}': {message}")


def _parse_range(text, fieldname):
    parts = text.split(":")
    _require(len(parts) == 3, fieldname, "expected lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"config field '{fieldname}': {exc}") from None
    _require(step > 0, fieldname, "step must be positive")
    _require(hi > lo, fieldname, "hi must exceed lo")
    n = int(round((hi - lo) / step)) + 1
    _require(n >= 2, fieldname, "resolution must be >= 2 per axis")
    return np.linspace(lo, hi, n)


def _parse_lambdas(text, fieldname):
    try:
        vals = [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise ConfigError(f"config field '{fieldname}': {exc}") from None
    _require(all(v > 0 for v in vals), fieldname, "lambdas must be positive")
    _require(vals == sorted(vals), fieldname, "lambdas must be ascending")
    return vals


def _poly(text, fieldname):
    from .tropical import parse_laurent

    try:
        return parse_laurent(text)
    except ValueError as exc:
        raise ConfigError(f"config field '{fieldname}': {exc}") from None


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

def _cmd_verify_flat(p, meta):
    from .ghcore import chern_flux, verify_closed, verify_compat
    from .lattice import LatticeSimplex, wall_complex
    from .solutions import flat_gh_solution, flat_solution

    n = p["n"]
    rng = np.random.default_rng(p["seed"])
    checks = []
    mags = rng.uniform(0.5, 2.0, size=(p["samples"], n + 1))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(p["samples"], n + 1))
    samples = [flat_solution(n, z) for z in mags * np.exp(1j * phases)]
    worst = float(max(abs(np.linalg.det(s.V) - np.linalg.det(s.W))
                      for s in samples))
    checks.append(CheckResult("flat-det-identity", worst < 1e-12,
                              {"maxResidual": f"{worst:.3e}",
                               "samples": p["samples"]}))
    if n == 1:
        sol = flat_gh_solution()
        pts = np.array([[s.u[0], s.eta.real, s.eta.imag] for s in samples])
        rep = verify_closed(sol, pts, step=p["step"], tolerance=p["tol"])
        checks.append(CheckResult(
            "flat-closedness", rep.passed,
            {"dF": f"{rep.extra['dF']:.3e}",
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
    keep = pts[sol.domain.contains(pts)]
    sub = keep[:min(len(keep), 64)]
    rep = verify_closed(sol, sub, step=1e-4, tolerance=p["tol"])
    checks.append(CheckResult("taubnut-closedness", rep.passed,
                              {"maxResidual": f"{rep.max_residual:.3e}"}))
    comp = verify_compat(sol, keep, tolerance=1e-12)
    checks.append(CheckResult("taubnut-compat", comp.passed,
                              {"maxResidual": f"{comp.max_residual:.3e}"}))
    return checks


def _cmd_ov(p, meta):
    from .solutions import ooguri_vafa, ov_total_flux

    sol = ooguri_vafa(1.0, p["modes"], p["a"])
    checks = []
    if p["csv"]:
        mshow = min(p["modes"], 8)
        header = ["u", "x", "y", "V"] + sum(
            ([f"re_V{m}", f"im_V{m}"] for m in range(1, mshow + 1)), [])
        rows = []
        for r in np.linspace(0.25, 2.0, 8):
            for y in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                u, x = r, 0.0
                row = [u, x, y, float(sol.value([[u, x, y]])[0])]
                for m in range(1, mshow + 1):
                    vm = complex(sol.mode_value(m, u, x))
                    row += [vm.real, vm.imag]
                rows.append(row)
        _write_csv(p["csv"], header, rows, meta)
    worst = 0.0
    for m in range(1, p["helmholtz_modes"] + 1):
        for rho in (0.1, 0.5, 2.0):
            worst = max(worst, abs(sol.helmholtz_residual(m, rho)))
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
    from .tropical import ronkin_grid

    P = p["poly"]
    _require(P.nvars == 1, "poly", "ronkin grid sweep expects one variable")
    grid = ronkin_grid(P, p["range"][:, None], lam=p["lam"],
                       nodes=p["nodes"], kappa=p["kappa"])
    if p["csv"]:
        _write_csv(p["csv"], grid.header(), grid.to_csv_rows(), meta)
    vals = grid.values
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    convex = float(np.min(second, initial=0.0))
    checks = [CheckResult("ronkin-convexity", convex > -1e-5,
                          {"minSecondDifference": f"{convex:.3e}",
                           "points": len(vals)})]
    from .tropical import tropical_limit

    # always-valid lower bound: N dominates the extreme Newton-polytope
    # terms (Jensen); the log(#terms) two-sided envelope needs |c| = 1
    exps = P.exponents()[:, 0]
    lo_t = (min(zip(exps, P.coefficients()), key=lambda t: t[0]))
    hi_t = (max(zip(exps, P.coefficients()), key=lambda t: t[0]))
    vertex = np.array([p["kappa"] * max(e * t + math.log(abs(c))
                                        for e, c in (lo_t, hi_t))
                       for t in p["range"]])
    low = float(np.min(vals - vertex, initial=0.0))
    ok = low >= -1e-3
    detail = {"minVertexGap": f"{low:.4f}"}
    if all(abs(abs(c) - 1.0) < 1e-12 for _, c in P.terms):
        tropical = np.array([tropical_limit(P, t, kappa=p["kappa"])
                             for t in p["range"][:, None]])
        slack = p["kappa"] * math.log(len(P.terms)) + 1e-3
        spread = float(np.max(np.abs(vals - tropical), initial=0.0))
        ok = ok and spread <= slack
        detail["envelopeSpread"] = f"{spread:.4f}"
        detail["allowed"] = f"{slack:.4f}"
    checks.append(CheckResult("ronkin-tropical-envelope", ok, detail))
    return checks


def _fiber_windings(P, x, tol, nodes=256):
    """Winding numbers of theta -> P(e^{x + i theta}) in the last angle.

    One per grid value of theta_1 (two variables) and per log-modulus
    x_l -+ tol of the last variable; all equal when no zero of P lies within
    tol of the fiber, since the winding counts the zeros inside the circle.
    """
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    zl = np.exp((x[-1] + np.array([-tol, tol]))[:, None] + 1j * t)
    if P.nvars == 1:
        z = zl[..., None]
    else:
        z1 = np.broadcast_to(np.exp(x[0] + 1j * t)[None, :, None], (2, nodes,
                                                                   nodes))
        z = np.stack([z1, np.broadcast_to(zl[:, None, :], z1.shape)], axis=-1)
    vals = P.evaluate(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = np.angle(np.roll(vals, -1, axis=-1) / vals).sum(axis=-1)
    return np.rint(turns / (2.0 * np.pi))


def _cmd_amoeba(p, meta):
    from .tropical import _amoeba_gap

    P, x, tol = p["poly"], np.asarray(p["point"]), p["tol"]
    gap, z = _amoeba_gap(P, x, tol=tol)
    inside = bool(gap <= tol)
    details = {"point": p["point"], "contains": inside}
    if inside:
        # certificate: a zero of P on the fiber, to tol in log-modulus
        ok = z is not None
        if ok:
            scale = sum(abs(c) * np.prod(np.abs(z) ** np.array(e))
                        for e, c in P.terms)
            res = float(abs(P.evaluate(z)) / scale)
            off = float(np.max(np.abs(np.log(np.abs(z)) - x)))
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
    import sympy as sp

    from .legendre import (SplitMASolution, block_determinant_residual,
                           verify_classical_ma)

    s, t = sp.symbols("s t", real=True)
    fams = {
        "quadratic": s ** 2 / 2 - t ** 2 / 2,
        "cross": s ** 2 / 2 + sp.Float(p["b"]) * s * t - t ** 2 / 2,
        "harmonic": sp.exp(s) * sp.cos(t),
    }
    _require(p["family"] in fams, "family",
             f"unknown family (choose from {sorted(fams)})")
    sol = SplitMASolution.from_potential(fams[p["family"]], 1, 1,
                                         symbols=(s, t))
    axis = np.linspace(-0.5, 0.5, p["grid"])
    g1, g2 = np.meshgrid(axis, axis)
    rep = verify_classical_ma(sol, np.stack([g1.ravel(), g2.ravel()], -1),
                              tolerance=p["tol"])
    checks = [CheckResult("legendre-det-hessian", rep.passed,
                          {"maxResidual": f"{rep.max_residual:.3e}",
                           "family": p["family"]})]
    rng = np.random.default_rng(p["seed"])
    worst = 0.0
    for _ in range(p["samples"]):
        n, l = rng.integers(1, 4, size=2)
        A = rng.uniform(-1, 1, size=(n, n)) + 2.0 * np.eye(n)
        D = rng.uniform(-1, 1, size=(l, l)) + 2.0 * np.eye(l)
        worst = max(worst, block_determinant_residual(
            A, rng.uniform(-1, 1, size=(n, l)),
            rng.uniform(-1, 1, size=(l, n)), D))
    checks.append(CheckResult("legendre-block-identity", worst < 1e-10,
                              {"maxResidual": f"{worst:.3e}",
                               "samples": p["samples"]}))
    return checks


def _cmd_holonomy(p, meta):
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
        payload = json.loads(rep.to_json())
        payload.update(meta)
        _write_json(p["out"], payload)
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
    from .decay import decay_fit
    from .solutions import ooguri_vafa

    sol = ooguri_vafa(1.0, p["modes"], p["a"])
    rs = p["rrange"]
    grid = np.stack([rs, np.zeros_like(rs)], axis=-1)
    rep = decay_fit(sol, grid, M=p["modes"], nodes=p["nodes"],
                    modes=p["gate_modes"], rms_limit=p["rms_limit"])
    checks = [CheckResult(
        "decay-slope-band", rep.all_passed,
        {"rates": {m: f"{rep.fits[m].rate:.4f}" for m in rep.modes}})]
    if p["csv"]:
        _write_csv(p["csv"], rep.csv_header(), rep.to_csv_rows(), meta)
    if p["svg"]:
        from .svgplot import emit_svg

        series = [(f"m={m}", list(rep.betas), list(rep.magnitudes[m]))
                  for m in rep.modes]
        emit_svg(series, {"title": "mode decay", "xlabel": "beta",
                          "ylabel": "|V^m|", "ylog": True}, p["svg"])
    return checks


def _cmd_collapse(p, meta):
    import mpmath as mp

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

    def family(lam):
        return PeriodicFourierSolution(
            lam, 5, p["a"],
            zero_mode=lambda u, x: p["a"] - np.log(
                np.hypot(u, x) / lam) / (2.0 * np.pi),
            check_positive=False)

    # sup over the grid and the circle of |V_lam(lam q, y) - V_inf(q)|: the
    # mode sum (1/pi) sum_m cos(m y) K0(m lam |q|), largest at y = 0 and
    # the smallest |q|
    grid = [(0.5, 0.0), (1.0, 0.5), (1.5, -0.5)]
    ys = 2.0 * np.pi * np.arange(p["nodes"]) / p["nodes"]
    qmin = min(math.hypot(*q) for q in grid)
    sups, gap = [], 0.0
    for lam in p["lambdas"]:
        sol = family(lam)
        sups.append(max(float(np.max(np.abs(sol.value(np.array(
            [[lam * q[0], lam * q[1], y] for y in ys])) - split_limit(q))))
            for q in grid))
        exact = sum(float(mp.besselk(0, m * lam * qmin))
                    for m in range(1, sol.M + 1)) / math.pi
        gap = max(gap, abs(sups[-1] - exact))
    ok = gap <= 1e-12 and all(b <= a for a, b in zip(sups, sups[1:]))
    checks.append(CheckResult(
        "collapse-field-nonincreasing", ok,
        {"supDistances": [f"{v:.3e}" for v in sups],
         "besselGap": f"{gap:.1e}"}))
    lam = max(10.0, p["lambdas"][-1])
    sol = family(lam)
    point = (1.2 * lam, 0.0, 0.3)
    fd = fiber_diameter(sol, point, lam, limit_value=split_limit((1.2, 0.0)))
    checks.append(CheckResult("collapse-fiber-diameter",
                              0.5 <= fd.ratio <= 2.0,
                              {"ratio": f"{fd.ratio:.4f}", "lambda": lam}))
    if p["csv"]:
        _write_csv(p["csv"], rep_r.csv_header(), rep_r.to_csv_rows(), meta)
    return checks


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ghlab",
        description="numerical laboratory for fibered Ricci-flat model "
                    "metrics, Ronkin functions and Legendre transforms")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", help="JSON config file (flags override)")
        sp.add_argument("--out", help="JSON report path")
        sp.add_argument("--csv", help="CSV output path")
        sp.add_argument("--svg", help="SVG output path")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("verify-flat", help="flat-metric identity suite")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--flux-radii", nargs=2, type=float, default=None)
    common(sp)

    sp = sub.add_parser("verify-taubnut", help="Taub-NUT harmonicity suite")
    sp.add_argument("--ell", type=float, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    common(sp)

    sp = sub.add_parser("ov", help="periodic Fourier-Bessel family checks")
    sp.add_argument("--modes", type=int, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--helmholtz-modes", type=int, default=None)
    sp.add_argument("--flux-radii", nargs=2, type=float, default=None)
    common(sp)

    sp = sub.add_parser("ronkin", help="Ronkin function grid sweep")
    sp.add_argument("--poly", default=None)
    sp.add_argument("--range", default=None, help="lo:hi:step")
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--kappa", type=int, choices=(1, 2), default=None)
    sp.add_argument("--lam", type=float, default=None)
    common(sp)

    sp = sub.add_parser("amoeba", help="amoeba membership query")
    sp.add_argument("--poly", default=None)
    sp.add_argument("--point", default=None, help="comma-separated")
    sp.add_argument("--tol", type=float, default=None)
    common(sp)

    sp = sub.add_parser("legendre", help="partial Legendre transform checks")
    sp.add_argument("--family", default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    common(sp)

    sp = sub.add_parser("holonomy", help="loop holonomy of the singular family")
    sp.add_argument("--loop-file", default=None)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--segments", type=int, default=None)
    sp.add_argument("--h", type=float, default=None)
    common(sp)

    sp = sub.add_parser("decay", help="exponential decay fit")
    sp.add_argument("--modes", type=int, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--rrange", default=None, help="lo:hi:step")
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--gate-modes", default=None,
                    help="comma-separated modes for the pass gate")
    sp.add_argument("--rms-limit", type=float, default=None)
    common(sp)

    sp = sub.add_parser("collapse", help="collapse surrogate measurements")
    sp.add_argument("--poly", default=None)
    sp.add_argument("--lambdas", default=None, help="comma-separated")
    sp.add_argument("--trange", default=None, help="lo:hi:step")
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--a", type=float, default=None)
    common(sp)
    return ap


_DEFAULTS = {
    "verify-flat": {"n": 1, "grid": 32, "samples": 200, "step": 1e-4,
                    "tol": 1e-6, "flux_radii": [0.4, 0.7]},
    "verify-taubnut": {"ell": 2.0, "a": 1.0, "samples": 1000, "tol": 1e-6},
    "ov": {"modes": 40, "a": 5.0, "helmholtz_modes": 10,
           "flux_radii": [0.3, 0.5]},
    "ronkin": {"poly": "1+z", "range": "-3:3:0.1", "nodes": 128, "kappa": 1,
               "lam": 1.0},
    "amoeba": {"poly": "1+z1+z2", "point": "0,0", "tol": 1e-6},
    "legendre": {"family": "harmonic", "b": 0.5, "grid": 9, "samples": 1000,
                 "tol": 1e-6},
    "holonomy": {"loop_file": None, "radius": 1.0, "segments": 64, "h": 1.0},
    "decay": {"modes": 8, "a": 4.0, "rrange": "0.5:3:0.25", "nodes": 128,
              "gate_modes": "4,5,6,7,8", "rms_limit": 0.1},
    "collapse": {"poly": "1+z+0.25*z^2", "lambdas": "1,5,25",
                 "trange": "-2:2:0.25", "nodes": 128, "a": 4.0},
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


def _resolve_config(args):
    cmd = args.command
    params = dict(_DEFAULTS[cmd])
    params.update({"seed": GHLAB_SEED, "out": None, "csv": None,
                   "svg": None})
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
            if norm not in params:
                raise ConfigError(f"config field '{key}': unknown field")
            params[norm] = val
    for key in params:
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return cmd, params


def _validate(cmd, p):
    if cmd == "verify-flat":
        _require(p["n"] in (1, 2), "n", "must be 1 or 2")
        _require(p["grid"] >= 2, "grid", "resolution must be >= 2")
        _require(p["samples"] >= 1, "samples", "must be >= 1")
        _require(p["tol"] > 0, "tol", "tolerance must be positive")
        _require(p["step"] > 0, "step", "step must be positive")
        p["flux_radii"] = [float(r) for r in p["flux_radii"]]
        _require(all(r > 0 for r in p["flux_radii"]), "flux_radii",
                 "radii must be positive")
    elif cmd == "verify-taubnut":
        _require(p["ell"] > 0, "ell", "must be positive")
        _require(p["a"] >= 0, "a", "must be nonnegative")
        _require(p["tol"] > 0, "tol", "tolerance must be positive")
    elif cmd == "ov":
        _require(p["modes"] >= 1, "modes", "must be >= 1")
        _require(p["helmholtz_modes"] >= 1, "helmholtz_modes", "must be >= 1")
        p["flux_radii"] = [float(r) for r in p["flux_radii"]]
        _require(all(r > 0 for r in p["flux_radii"]), "flux_radii",
                 "radii must be positive")
    elif cmd == "ronkin":
        p["poly"] = _poly(p["poly"], "poly")
        p["range"] = _parse_range(p["range"], "range")
        _require(p["nodes"] >= 16, "nodes", "must be >= 16")
        _require(p["kappa"] in (1, 2), "kappa", "must be 1 or 2")
        _require(p["lam"] > 0, "lam", "must be positive")
    elif cmd == "amoeba":
        p["poly"] = _poly(p["poly"], "poly")
        _require(p["poly"].nvars <= 2, "poly", "at most 2 variables")
        try:
            p["point"] = [float(v) for v in str(p["point"]).split(",")]
        except ValueError as exc:
            raise ConfigError(f"config field 'point': {exc}") from None
        _require(len(p["point"]) == p["poly"].nvars, "point",
                 "length must match the number of variables")
        _require(p["tol"] > 0, "tol", "tolerance must be positive")
    elif cmd == "legendre":
        _require(p["grid"] >= 2, "grid", "resolution must be >= 2")
        _require(p["samples"] >= 1, "samples", "must be >= 1")
        _require(p["tol"] > 0, "tol", "tolerance must be positive")
    elif cmd == "holonomy":
        _require(p["radius"] > 0, "radius", "must be positive")
        _require(p["segments"] >= 3, "segments", "must be >= 3")
    elif cmd == "decay":
        _require(p["modes"] >= 1, "modes", "must be >= 1")
        p["rrange"] = _parse_range(p["rrange"], "rrange")
        _require(p["nodes"] > 2 * p["modes"], "nodes", "need nodes > 2*modes")
        try:
            gate = [int(v) for v in str(p["gate_modes"]).split(",")]
        except ValueError as exc:
            raise ConfigError(f"config field 'gate_modes': {exc}") from None
        _require(all(1 <= m <= p["modes"] for m in gate), "gate_modes",
                 "modes out of range")
        p["gate_modes"] = gate
        _require(p["rms_limit"] > 0, "rms_limit", "must be positive")
    elif cmd == "collapse":
        p["poly"] = _poly(p["poly"], "poly")
        _require(p["poly"].nvars == 1, "poly", "collapse expects one variable")
        p["lambdas"] = _parse_lambdas(p["lambdas"], "lambdas")
        p["trange"] = _parse_range(p["trange"], "trange")
        _require(p["nodes"] >= 16, "nodes", "must be >= 16")
        _require(p["a"] > 0, "a", "must be positive")
    return p


def _merge_negative_values(argv):
    """Join flags with values like '-3:3:0.1' that argparse mistakes for
    options (ranges and points may start with a minus sign)."""
    joinable = {"--range", "--rrange", "--trange", "--point", "--lambdas"}
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in joinable and k + 1 < len(argv) and \
                argv[k + 1].startswith("-"):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
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
    try:
        cmd, params = _resolve_config(args)
        run = RunConfig(command=cmd, params=_validate(cmd, params))
        params = run.params
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    hash_src = {k: v for k, v in params.items()
                if k not in ("out", "csv", "svg")}
    meta = {"version": __version__, "configHash": _config_hash(hash_src)}
    try:
        checks = _RUNNERS[cmd](params, meta)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GHLabError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    for c in checks:
        print(c.line())
    if params.get("out") and cmd != "holonomy":
        _write_json(params["out"], {
            "command": cmd, **meta,
            "checks": [{"name": c.name, "pass": c.passed,
                        "details": c.details} for c in checks]})
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
