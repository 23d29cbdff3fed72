"""Warm in-process library call sets, each result checked by an oracle.

Run by run.py as a child process with PYTHONPATH=src:

    python3 perfbench/library.py --sets symbolic --seed 1

It runs one untimed warm-up rep, then one timed rep for each ``rep`` line
on stdin and one traced rep for each ``trace`` line, answering each with a
JSON line; ``exit`` (or end of input) ends it with a JSON line of the
operation counts, failures and library versions.

A set is three functions: ``inputs(rng)`` draws the seeded inputs,
``run(inp)`` makes the library calls (the only timed part) and ``check``
compares every result with an oracle that does not use the code under test
(a closed form, a frozen constant or an mpmath evaluation).  A call that
raises is a failed operation, never a crash of the benchmark.

Every rep clears sympy's process-wide cache and collects garbage first, so
each rep pays the same symbolic build as a fresh session.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import platform
import sys
import time

import mpmath
import numpy as np
import sympy
from sympy.core.cache import clear_cache

import tracer
from run import Ledger
from ghlab import bessel, decay, ghcore, legendre, solutions, tropical

MAHLER_1ZW = 0.3230659472194502   # Mahler measure of 1 + z1 + z2
FLAT_WALL_WEIGHT = -1.0           # w_0 - w_1 for the flat metric on C^2


def check(ledger, name, result, predicate):
    """Count one operation: failed if it raised or its oracle disagrees."""
    if isinstance(result, Exception):
        ok, why = False, f"{type(result).__name__}: {result}"
    else:
        try:
            ok, why = bool(predicate(result)), "oracle mismatch"
        except Exception as exc:  # a malformed result fails the op
            ok, why = False, f"{type(exc).__name__}: {exc}"
    ledger.record(name, ok, why)


def attempt(fn, *args, **kw):
    """Call fn; an exception becomes the result so the check counts it."""
    try:
        return fn(*args, **kw)
    except Exception as exc:
        return exc


def _rel_close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= tol * np.abs(want)))


# ---------------------------------------------------------------------------
# symbolic: the potential route (fields, ghcore, legendre)
# ---------------------------------------------------------------------------

def _taubnut_points(rng, count):
    """Radii 0.5..2, away from the potential's branch ray u <= 0."""
    out = []
    while sum(len(b) for b in out) < count:
        p = rng.normal(size=(count, 3))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        p *= rng.uniform(0.5, 2.0, size=(count, 1))
        r = np.linalg.norm(p, axis=1)
        out.append(p[p[:, 0] + r >= 0.25 * np.maximum(r, 1.0)])
    return np.concatenate(out)[:count]


def symbolic_inputs(rng):
    pts = _taubnut_points(rng, 64 + 1000)
    return {"ell": float(rng.uniform(1.0, 3.0)),
            "a": float(rng.uniform(0.5, 2.0)),
            "closed_pts": pts[:64], "compat_pts": pts[64:],
            "flux_radii": rng.uniform(0.3, 1.2, size=2),
            "ma_pts": rng.uniform(-0.5, 0.5, size=(81, 2)),
            "loop_radius": float(rng.uniform(0.5, 1.0))}


def symbolic_run(inp):
    r = {}
    sol = attempt(solutions.taub_nut, inp["ell"], inp["a"])
    r["verify_closed"] = attempt(ghcore.verify_closed, sol, inp["closed_pts"],
                                 step=1e-4, tolerance=1e-6)
    r["verify_compat"] = attempt(ghcore.verify_compat, sol, inp["compat_pts"],
                                 tolerance=1e-12)
    r["V"] = attempt(lambda: sol.V(inp["compat_pts"]))
    flat = attempt(solutions.flat_gh_solution)
    r["chern_flux"] = [attempt(ghcore.chern_flux, flat, [0.0], rad,
                               nodes=(32, 64)) for rad in inp["flux_radii"]]
    s, t = sympy.symbols("s t", real=True)
    ma = attempt(legendre.SplitMASolution.from_potential,
                 sympy.exp(s) * sympy.cos(t), 1, 1, symbols=(s, t))
    r["ma_V"] = attempt(lambda: ma.V(inp["ma_pts"]))
    r["verify_classical_ma"] = attempt(legendre.verify_classical_ma, ma,
                                       inp["ma_pts"], tolerance=1e-6)
    loop = legendre.circle_loop(radius=inp["loop_radius"], segments=64)
    r["beta_holonomy"] = attempt(
        lambda: legendre.beta_holonomy(legendre.singular_2d(h=1.0), loop))
    return r


def symbolic_check(inp, r, ledger):
    check(ledger, "taub_nut.verify_closed", r["verify_closed"],
          lambda rep: rep.passed and rep.max_residual <= 1e-6)
    check(ledger, "taub_nut.verify_compat", r["verify_compat"],
          lambda rep: rep.passed and rep.max_residual <= 1e-12)
    pts = inp["compat_pts"]
    closed_v = 0.5 * inp["ell"] / np.linalg.norm(pts, axis=1) + inp["a"]
    check(ledger, "taub_nut.V", r["V"],
          lambda v: _rel_close(v[:, 0, 0], closed_v, 1e-10))
    for k, flux in enumerate(r["chern_flux"]):
        check(ledger, f"chern_flux[{k}]", flux,
              lambda f: abs(float(f[0]) - FLAT_WALL_WEIGHT) < 1e-3)
    s, t = inp["ma_pts"].T
    check(ledger, "harmonic.V", r["ma_V"],
          lambda v: _rel_close(v[:, 0, 0], np.exp(s) * np.cos(t), 1e-10))
    check(ledger, "verify_classical_ma", r["verify_classical_ma"],
          lambda rep: rep.passed and rep.max_residual <= 1e-6)
    # one counterclockwise turn around the unit charge: holonomy -1
    check(ledger, "beta_holonomy", r["beta_holonomy"],
          lambda rep: rep.windings == [1]
          and abs(rep.holonomy[0, 0] + 1.0) < 1e-6
          and rep.max_abs_error < 1e-6)


# ---------------------------------------------------------------------------
# periodic: the Fourier-Bessel family (bessel, solutions, decay)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _mp_k0(x):
    """mpmath's K0; cached, as every rep checks the same arguments."""
    return float(mpmath.besselk(0, x))


def _mode_sum(M, rho, y, zero_mode):
    """V at (rho, y): the zero mode plus M unit modes with mpmath's K0."""
    total = zero_mode
    for m in range(1, M + 1):
        total += 2.0 * math.cos(m * y) * _mp_k0(m * rho) / (2.0 * math.pi)
    return total


def periodic_inputs(rng):
    n = 20000
    rho = rng.uniform(0.2, 5.0, n)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack([rho * np.cos(ang), rho * np.sin(ang),
                    rng.uniform(0.0, 2.0 * np.pi, n)], axis=-1)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    rs = np.arange(0.5, 3.01, 0.25)
    return {"k0_args": rng.uniform(0.05, 30.0, 10 ** 6),
            "k0_sample": rng.choice(10 ** 6, 64, replace=False),
            "a": float(rng.uniform(5.0, 6.0)),
            "value_pts": pts,
            "value_sample": rng.choice(n, 16, replace=False),
            "flux_radii": rng.uniform(0.25, 2.0, 3),
            "helmholtz_radii": rng.uniform(0.1, 2.0, 3),
            "decay_a": float(rng.uniform(4.0, 6.0)),
            "decay_grid": np.stack([rs * np.cos(phi), rs * np.sin(phi)], -1),
            "collapse_a": float(rng.uniform(3.0, 5.0))}


def _collapse_family(a):
    def family(lam):
        return solutions.PeriodicFourierSolution(
            lam, 5, a, check_positive=False,
            zero_mode=lambda u, x: a - np.log(np.hypot(u, x) / lam)
            / (2.0 * np.pi))
    return family


def _split_limit(a):
    return lambda q: a - math.log(math.hypot(q[0], q[1])) / (2.0 * math.pi)


def periodic_run(inp):
    r = {"k0": attempt(bessel.k0, inp["k0_args"])}
    sol = attempt(solutions.ooguri_vafa, 1.0, 40, inp["a"])
    r["value"] = attempt(lambda: sol.value(inp["value_pts"]))
    r["ov_total_flux"] = [attempt(solutions.ov_total_flux, sol, rad)
                          for rad in inp["flux_radii"]]
    r["helmholtz"] = attempt(lambda: [sol.helmholtz_residual(m, rho)
                                      for m in range(1, 11)
                                      for rho in inp["helmholtz_radii"]])
    fit_sol = attempt(solutions.ooguri_vafa, 1.0, 8, inp["decay_a"])
    r["decay_fit"] = attempt(decay.decay_fit, fit_sol, inp["decay_grid"], M=8,
                             nodes=128, modes=[4, 5, 6, 7, 8], rms_limit=0.1)
    a = inp["collapse_a"]
    family, split = _collapse_family(a), _split_limit(a)
    r["collapse_distance"] = attempt(
        decay.collapse_distance, family, split, [1.0, 5.0, 25.0],
        [(0.5, 0.0), (1.0, 0.5), (1.5, -0.5)], nodes=128,
        beta_fn=lambda q: math.hypot(q[0], q[1]))
    r["fiber_diameter"] = attempt(
        lambda: decay.fiber_diameter(family(25.0), (30.0, 0.0, 0.3), 25.0,
                                     limit_value=split((1.2, 0.0))))
    return r


def periodic_check(inp, r, ledger):
    idx = inp["k0_sample"]
    want = [_mp_k0(x) for x in inp["k0_args"][idx]]
    check(ledger, "k0", r["k0"], lambda v: _rel_close(v[idx], want, 1e-10))
    a, pts = inp["a"], inp["value_pts"]
    want = [_mode_sum(40, math.hypot(p[0], p[1]), p[2],
                      a - math.log(math.hypot(p[0], p[1])) / (2.0 * math.pi))
            for p in pts[inp["value_sample"]]]
    check(ledger, "ooguri_vafa.value", r["value"],
          lambda v: np.max(np.abs(v[inp["value_sample"]] - want)) < 1e-9)
    for k, flux in enumerate(r["ov_total_flux"]):
        check(ledger, f"ov_total_flux[{k}]", flux,
              lambda f: abs(f + 2.0 * math.pi) < 0.01 * 2.0 * math.pi)
    check(ledger, "helmholtz_residual", r["helmholtz"],
          lambda res: max(abs(v) for v in res) < 1e-8)

    def decay_ok(rep):
        # |V^m| of the unit-coefficient family is K0(m r) / 2 pi
        return rep.all_passed and all(
            np.max(np.abs(rep.magnitudes[m] - [_mp_k0(m * b) / (2 * math.pi)
                                               for b in rep.betas])) < 1e-10
            for m in rep.modes)
    check(ledger, "decay_fit", r["decay_fit"], decay_ok)
    # modes m != 0 average to zero over the fiber, so the extracted zero
    # mode equals the split limit up to rounding
    check(ledger, "collapse_distance", r["collapse_distance"],
          lambda rep: max(rep.sup_distances) < 1e-9)
    a = inp["collapse_a"]
    v = _mode_sum(5, 30.0, 0.3, a - math.log(30.0 / 25.0) / (2.0 * math.pi))
    check(ledger, "fiber_diameter", r["fiber_diameter"],
          lambda fd: abs(fd.length - 2.0 * math.pi / math.sqrt(v))
          < 1e-9 * fd.length and 0.5 <= fd.ratio <= 2.0)


# ---------------------------------------------------------------------------
# tropical: Ronkin functions and amoebas (tropical, decay)
# ---------------------------------------------------------------------------

def _amoeba_margin(x):
    """Signed triangle-inequality margin of |1|, |z1|, |z2| at log|z| = x.

    Positive: the three moduli close a triangle, so 1 + z1 + z2 vanishes on
    the fiber (x is in the amoeba).  Negative: one modulus dominates.
    """
    m = np.array([1.0, math.exp(x[0]), math.exp(x[1])])
    return float((m.sum() - 2.0 * m.max()) / m.max())


def _draw_points(rng, inside, count, margin):
    out = []
    while len(out) < count:
        x = rng.uniform(-2.0, 2.0, 2)
        g = _amoeba_margin(x)
        if abs(g) >= margin and (g > 0) == inside:
            out.append(x)
    return out


def _jensen_ronkin_2d(x, nodes=1 << 18):
    """N(x) of 1 + z1 + z2 by Jensen's formula in z2, then a fine
    trapezoid rule in theta_1 (the integrand is continuous)."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    inner = np.log(np.abs(1.0 + np.exp(x[0] + 1j * theta)))
    return float(np.mean(np.maximum(inner, x[1])))


def _pdouble_sup(grid, lam):
    """sup_t |N(lam t)/lam - max(0, 2t)| for (1 + z/2)^2, in closed form."""
    c = math.log(2.0) / lam
    return max(abs(2.0 * max(0.0, t - c) - max(0.0, 2.0 * t)) for t in grid)


def tropical_inputs(rng):
    # clearly off the amoeba, the quadrature converges at the first doubling
    return {"on": _draw_points(rng, True, 1, 0.05),
            "off": _draw_points(rng, False, 2, 0.3),
            "grid": np.sort(rng.uniform(-3.0, 3.0, 61)),
            "membership": _draw_points(rng, True, 3, 1e-3)
            + _draw_points(rng, False, 3, 1e-3),
            "hessian_box": float(rng.uniform(0.5, 2.0)),
            "collapse_grid": np.linspace(-2.0, 2.0, 17)
            + rng.uniform(-0.1, 0.1)}


P2 = tropical.LaurentPoly.make([((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)])
P1Z = tropical.LaurentPoly.make([((0,), 1.0), ((1,), 1.0)])
PDOUBLE = tropical.LaurentPoly.make([((0,), 1.0), ((1,), 1.0), ((2,), 0.25)])


def tropical_run(inp):
    # tol=1e-9 is below the quadrature error on the amoeba, so every call
    # there doubles up to the 2048^2 cap, whatever the seeded point
    def ronkin2(x):
        return attempt(tropical.ronkin, P2, x, nodes=128, tol=1e-9)

    r = {"origin": ronkin2((0.0, 0.0)),
         "on": [ronkin2(x) for x in inp["on"]],
         "off": [ronkin2(x) for x in inp["off"]],
         "grid": attempt(tropical.ronkin_grid, P1Z, inp["grid"][:, None],
                         nodes=128),
         "membership": [attempt(tropical.amoeba_contains, P2, x)
                        for x in inp["membership"]]}
    b = inp["hessian_box"]
    r["hessian"] = attempt(tropical.ronkin_hessian_mass, P1Z, (-b, b))
    r["collapse"] = attempt(decay.ronkin_collapse, PDOUBLE, [1.0, 5.0, 25.0],
                            inp["collapse_grid"][:, None], nodes=128)
    return r


def tropical_check(inp, r, ledger):
    check(ledger, "ronkin.origin", r["origin"],
          lambda v: abs(v - MAHLER_1ZW) < 1e-3)
    for x, v in zip(inp["on"], r["on"]):
        want = _jensen_ronkin_2d(x)
        check(ledger, "ronkin.on_amoeba", v,
              lambda got: abs(got - want) < 1e-3)
    for x, v in zip(inp["off"], r["off"]):
        # off the amoeba N is the dominant monomial's log-modulus
        check(ledger, "ronkin.off_amoeba", v,
              lambda got: abs(got - max(0.0, x[0], x[1])) < 1e-6)
    grid = inp["grid"]
    tol = np.where(np.abs(grid) < 0.05, 1e-3, 1e-6)
    check(ledger, "ronkin_grid", r["grid"],
          lambda g: np.all(np.abs(g.values - np.maximum(grid, 0.0)) < tol))
    for x, inside in zip(inp["membership"], r["membership"]):
        check(ledger, "amoeba_contains", inside,
              lambda got: got == (_amoeba_margin(x) > 0))
    check(ledger, "ronkin_hessian_mass", r["hessian"],
          lambda m: abs(m[0, 0] - 1.0) < 1e-3)
    check(ledger, "ronkin_collapse", r["collapse"],
          lambda rep: all(
              abs(got - _pdouble_sup(inp["collapse_grid"], lam)) < 1e-3
              for lam, got in zip(rep.lambdas, rep.sup_distances)))


SETS = {
    "symbolic": (symbolic_inputs, symbolic_run, symbolic_check),
    "periodic": (periodic_inputs, periodic_run, periodic_check),
    "tropical": (tropical_inputs, tropical_run, tropical_check),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", required=True,
                    help="comma-separated names from " + ",".join(SETS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inject-fault", action="store_true",
                    help="add one op per rep whose oracle is wrong")
    args = ap.parse_args()
    names = args.sets.split(",")
    inputs = {name: SETS[name][0](
        np.random.default_rng([args.seed, list(SETS).index(name)]))
        for name in names}
    ledger = Ledger()

    def rep():
        clear_cache()
        gc.collect()
        t0 = time.perf_counter()
        results = {name: SETS[name][1](inputs[name]) for name in names}
        elapsed = time.perf_counter() - t0
        for name in names:
            SETS[name][2](inputs[name], results[name], ledger)
        if args.inject_fault:
            check(ledger, "injected", MAHLER_1ZW,
                  lambda v: abs(v - MAHLER_1ZW - 0.5) < 1e-3)
        return elapsed

    print(json.dumps({"warmup_s": rep()}), flush=True)
    for line in sys.stdin:
        if line.strip() == "rep":
            print(json.dumps({"rep_s": rep()}), flush=True)
        elif line.strip() == "trace":
            tr = tracer.Tracer()
            tr.install()
            try:
                elapsed = rep()
            finally:
                tr.uninstall()
            print(json.dumps({"rep_s": elapsed, "trace": tr.export()}),
                  flush=True)
        else:
            break
    print(json.dumps({
        "ops": ledger.ops, "failed": ledger.failed,
        "failures": ledger.failures,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "sympy": sympy.__version__,
                     "mpmath": mpmath.__version__}}), flush=True)


if __name__ == "__main__":
    main()
