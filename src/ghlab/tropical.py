"""Laurent polynomials, Ronkin functions, amoebas and tropical limits.

The Ronkin function is the torus-fiber average of kappa*log|P|,
    N(x) = kappa / (2 pi)^l * integral over [0,2pi)^l of log|P(e^{x+i theta})|,
computed by tensor trapezoid quadrature with seeded grid jitter and node
doubling.  ``kappa`` in {1, 2} selects the normalization (kappa=1 makes the
tropical slopes equal to the exponent vectors literally).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import GHLAB_SEED
from .lattice import wall_complex


class TropicalError(Exception):
    pass


class SingularFiber(TropicalError):
    """A zero of P sits on a quadrature node even after jitter retries."""


class RootFindingFailure(TropicalError):
    pass


@dataclass(frozen=True)
class LaurentPoly:
    """Finite sum of c * z^e with integer exponent vectors e in Z^l."""
    terms: tuple  # ((exponent tuple, complex coefficient), ...)
    nvars: int

    @classmethod
    def make(cls, terms, nvars=None):
        canon = []
        for e, c in terms:
            e = tuple(int(k) for k in np.atleast_1d(e))
            c = complex(c)
            if c == 0:
                raise ValueError("zero coefficient")
            canon.append((e, c))
        if not canon:
            raise ValueError("polynomial needs at least one term")
        if len({e for e, _ in canon}) != len(canon):
            raise ValueError("duplicate exponents")
        lv = len(canon[0][0])
        if any(len(e) != lv for e, _ in canon):
            raise ValueError("mixed exponent lengths")
        if nvars is not None and nvars != lv:
            raise ValueError("nvars does not match exponents")
        return cls(terms=tuple(sorted(canon, key=lambda t: t[0])), nvars=lv)

    def exponents(self):
        return np.array([e for e, _ in self.terms], dtype=int)

    def coefficients(self):
        return np.array([c for _, c in self.terms], dtype=complex)

    def evaluate(self, z):
        """Evaluate at z, complex array of shape (..., nvars)."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for e, c in self.terms:
            term = np.full(z.shape[:-1], c, dtype=complex)
            for k, ek in enumerate(e):
                if ek:
                    term = term * z[..., k] ** ek
            out = out + term
        return out

    def shift(self, rho):
        """Multiply by z^rho (shifts every exponent; changes N by a linear map)."""
        return LaurentPoly.make([(tuple(a + b for a, b in zip(e, rho)), c)
                                 for e, c in self.terms])

    def to_json(self):
        return json.dumps({"terms": [
            {"exp": list(e), "re": c.real, "im": c.imag} for e, c in self.terms]})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls.make([(t["exp"], complex(t.get("re", 0.0), t.get("im", 0.0)))
                         for t in data["terms"]])


# ---------------------------------------------------------------------------
# Ronkin function
# ---------------------------------------------------------------------------

def _log_abs_on_torus(P, x, nodes, offsets):
    """Mean of log|P| on the torus |z_k| = e^{x_k} with jittered nodes."""
    l = P.nvars
    axes = [2.0 * np.pi * np.arange(nodes) / nodes + offsets[k] for k in range(l)]
    if l == 1:
        theta = axes[0][:, None]
    else:
        t0, t1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        theta = np.stack([t0, t1], axis=-1).reshape(-1, 2)
    z = np.exp(np.asarray(x, dtype=float) + 1j * theta)
    vals = np.abs(P.evaluate(z))
    scale = float(np.max(vals)) if vals.size else 1.0
    if scale == 0.0 or np.min(vals) < 1e-13 * max(scale, 1e-300):
        return None
    return float(np.mean(np.log(vals)))


def ronkin(P, x, nodes=64, kappa=1, tol=1e-6, max_doublings=5):
    """Torus average of kappa*log|P| at log-modulus x.

    Node doubling continues until two successive estimates agree to ``tol``
    or the doubling budget is spent (the last estimate is returned; on
    singular fibers the quadrature error is dominated by the jittered nodes
    nearest the zero set and decays roughly like log(n)/n^2).  Deterministic:
    jitter offsets come from a fixed seed.
    """
    if P.nvars > 2:
        raise ValueError("ronkin supports at most 2 variables")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != P.nvars:
        raise ValueError("x has wrong length")
    rng = np.random.default_rng(GHLAB_SEED)
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=P.nvars)
    cap = 2048 if P.nvars == 2 else 1 << 16

    def estimate(n):
        val = _log_abs_on_torus(P, x, n, offsets)
        retries = 0
        while val is None and retries < 3:
            retries += 1
            jitter = rng.uniform(0.0, 2.0 * np.pi, size=P.nvars)
            val = _log_abs_on_torus(P, x, n, jitter)
        if val is None:
            raise SingularFiber(f"zero of P on the fiber log|z| = {x}")
        return val

    prev = estimate(nodes)
    n = nodes
    for _ in range(max_doublings):
        if n * 2 > cap:
            break
        n *= 2
        cur = estimate(n)
        if abs(cur - prev) < tol:
            return kappa * cur
        prev = cur
    return kappa * prev


def ronkin_rescaled(P, t, lam, nodes=64, kappa=1, tol=1e-6):
    """N(lam * t) / lam."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return ronkin(P, lam * t, nodes=nodes, kappa=kappa, tol=tol) / lam


def tropical_limit(P, t, kappa=1, include_coefficients=True):
    """Piecewise-linear limit kappa * max_i(<e_i, t> + log|c_i|).

    With ``include_coefficients=False`` the coefficient offsets are dropped;
    that is the limit of the rescaled Ronkin family N(lam t)/lam, whose
    corner locus passes through the spine.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals = [float(np.dot(e, t)) + (math.log(abs(c)) if include_coefficients else 0.0)
            for e, c in P.terms]
    return kappa * max(vals)


# ---------------------------------------------------------------------------
# amoeba membership
# ---------------------------------------------------------------------------

def _laurent_roots_1d(P, scale=1.0):
    """Roots of a one-variable Laurent polynomial (companion matrix)."""
    exps = P.exponents()[:, 0]
    emin, emax = int(exps.min()), int(exps.max())
    deg = emax - emin
    if deg == 0:
        return np.array([])
    coeffs = np.zeros(deg + 1, dtype=complex)
    for e, c in P.terms:
        coeffs[e[0] - emin] = c
    roots = np.roots(coeffs[::-1])
    # residual check relative to the term scale at each root
    for r in roots:
        if r == 0:
            continue
        mags = np.abs(P.coefficients()) * np.abs(r) ** (exps - emin)
        res = abs(np.polyval(coeffs[::-1], r))
        if res > 1e-10 * max(mags.sum(), 1e-300) * scale:
            raise RootFindingFailure(f"root residual {res:.2e} too large")
    return roots


def amoeba_contains(P, x, tol=1e-6, sweep=720):
    """Does the torus fiber log|z| = x meet the zero set of P?"""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if P.nvars == 1:
        roots = _laurent_roots_1d(P)
        roots = roots[np.abs(roots) > 0]
        if roots.size == 0:
            return False
        return bool(np.min(np.abs(np.log(np.abs(roots)) - x[0])) <= tol)
    if P.nvars != 2:
        raise ValueError("amoeba_contains supports at most 2 variables")

    def gap(theta):
        z1 = np.exp(x[0] + 1j * theta)
        sub = {}
        for e, c in P.terms:
            sub.setdefault(e[1], 0.0)
            sub[e[1]] += c * z1 ** e[0]
        terms = [((k,), v) for k, v in sub.items() if abs(v) > 1e-14]
        if not terms:
            return 0.0   # identically zero in z2: fiber certainly meets
        Q = LaurentPoly.make(terms)
        roots = _laurent_roots_1d(Q)
        roots = roots[np.abs(roots) > 0]
        if roots.size == 0:
            return math.inf
        return float(np.min(np.abs(np.log(np.abs(roots)) - x[1])))

    thetas = np.linspace(0.0, 2.0 * np.pi, sweep, endpoint=False)
    gaps = np.array([gap(t) for t in thetas])
    k = int(np.argmin(gaps))
    best = gaps[k]
    if best <= tol:
        return True
    # golden-section refinement around the best angle
    a = thetas[k] - 2.0 * np.pi / sweep
    b = thetas[k] + 2.0 * np.pi / sweep
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = gap(c), gap(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = gap(d)
        best = min(best, fc, fd)
        if best <= tol:
            return True
    return bool(best <= tol)


def spine(pair):
    """Wall complex of sigma in the stored base-lattice coordinates."""
    return wall_complex(pair.sigma, basis=pair.base_basis)


def laurent_from_pair(pair, coefficients=None):
    """The pair's polynomial sum_i c_i z^{v_i - rho} in base coordinates.

    Each shifted vertex v_i - rho annihilates tau, so it has integer
    coordinates in the stored base basis; the shift by rho changes the
    Ronkin function by a linear map only, and is applied explicitly for
    reproducibility.
    """
    from .lattice import integer_solve

    if pair.l == 0:
        return LaurentPoly.make([((0,), 1.0)])
    basis_T = [[b[k] for b in pair.base_basis]
               for k in range(len(pair.base_basis[0]))]
    exps = []
    for v in pair.sigma.vertices:
        shifted = [a - b for a, b in zip(v, pair.rho)]
        c = integer_solve(basis_T, shifted)
        if c is None:
            raise ValueError(f"{shifted} is not in the base lattice")
        exps.append(tuple(c))
    coeffs = coefficients if coefficients is not None else [1.0] * len(exps)
    return LaurentPoly.make(list(zip(exps, coeffs)))


# ---------------------------------------------------------------------------
# Hessian mass
# ---------------------------------------------------------------------------

def ronkin_hessian_mass(P, box, nodes=64, kappa=1, step=0.05, face_res=17,
                        tol=1e-8):
    """Total second-derivative mass of N over a box.

    Returns the (l x l) matrix approximating the integral of Hess N, computed
    as boundary differences of finite-difference gradients; for l = 1 this is
    the slope jump across the box.
    """
    l = P.nvars
    if l > 2:
        raise ValueError("supports at most 2 variables")

    def NV(x):
        return ronkin(P, x, nodes=nodes, kappa=kappa, tol=tol)

    if l == 1:
        a, b = float(box[0]), float(box[1])
        slope_b = (NV(b + step) - NV(b - step)) / (2.0 * step)
        slope_a = (NV(a + step) - NV(a - step)) / (2.0 * step)
        return np.array([[slope_b - slope_a]])

    (a1, b1), (a2, b2) = box
    out = np.zeros((2, 2))

    def grad_component(x, q):
        e = np.zeros(2)
        e[q] = step
        return (NV(np.asarray(x) + e) - NV(np.asarray(x) - e)) / (2.0 * step)

    for p in range(2):
        lo = [a1, a2][p]
        hi = [b1, b2][p]
        other = 1 - p
        olo, ohi = [(a1, b1), (a2, b2)][other]
        ts = np.linspace(olo, ohi, face_res)
        w = np.full(face_res, (ohi - olo) / (face_res - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        for q in range(2):
            hi_vals = []
            lo_vals = []
            for t in ts:
                xhi = [0.0, 0.0]
                xhi[p] = hi
                xhi[other] = t
                xlo = [0.0, 0.0]
                xlo[p] = lo
                xlo[other] = t
                hi_vals.append(grad_component(xhi, q))
                lo_vals.append(grad_component(xlo, q))
            out[p, q] = float(np.dot(w, hi_vals) - np.dot(w, lo_vals))
    return out


# ---------------------------------------------------------------------------
# sampled grids
# ---------------------------------------------------------------------------

@dataclass
class RonkinGrid:
    """Sampled rescaled Ronkin values against their tropical limit."""
    points: np.ndarray        # (N, l)
    lam: float
    values: np.ndarray        # N(lam t)/lam per point
    limits: np.ndarray        # tropical limit per point
    kappa: int
    nodes: int

    def to_csv_rows(self):
        rows = []
        for p, v, t in zip(self.points, self.values, self.limits):
            rows.append(list(map(float, p)) +
                        [float(self.lam), float(v), float(t), abs(float(v - t))])
        return rows

    def header(self):
        l = self.points.shape[1]
        cols = [f"t{k+1}" for k in range(l)]
        return cols + ["lambda", "N_lambda", "N_inf", "abs_err"]


def ronkin_grid(P, points, lam=1.0, nodes=64, kappa=1,
                include_coefficients=False):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.array([ronkin_rescaled(P, t, lam, nodes=nodes, kappa=kappa)
                     for t in points])
    lims = np.array([tropical_limit(P, t, kappa=kappa,
                                    include_coefficients=include_coefficients)
                     for t in points])
    return RonkinGrid(points=points, lam=lam, values=vals, limits=lims,
                      kappa=kappa, nodes=nodes)


def parse_laurent(text):
    """Parse the CLI mini-grammar: terms 'c*z1^a*z2^b' joined by + or -.

    ``z`` is an alias for ``z1``.  Coefficients are decimals, exponents are
    (possibly negative) integers.  Grammar (EBNF):

        poly   = [sign] term { sign term } ;
        term   = coef [ "*" factors ] | factors ;
        factors= factor { "*" factor } ;
        factor = var [ "^" int ] ;
        var    = "z" [ digits ] ;
        coef   = decimal ;
        sign   = "+" | "-" ;
    """
    import re

    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    token = re.compile(
        r"(?P<sign>[+-])|(?P<num>\d+(?:\.\d*)?|\.\d+)|(?P<var>z\d*)"
        r"|(?P<pow>\^-?\d+)|(?P<mul>\*)")
    pos = 0
    sign = 1.0
    sign_pending = False
    terms = []
    cur_coef = None
    cur_exp = {}
    started = False

    def flush():
        nonlocal cur_coef, cur_exp, started, sign, sign_pending
        if not started:
            raise ValueError(f"dangling sign in {text!r}")
        coef = sign * (1.0 if cur_coef is None else cur_coef)
        terms.append((dict(cur_exp), coef))
        cur_coef, cur_exp, started, sign = None, {}, False, 1.0
        sign_pending = False

    last_var = None
    while pos < len(s):
        m = token.match(s, pos)
        if not m:
            raise ValueError(f"cannot parse {text!r} at position {pos}")
        pos = m.end()
        if m.lastgroup == "sign":
            if started:
                flush()
            elif sign_pending:
                raise ValueError(f"consecutive signs in {text!r}")
            sign = 1.0 if m.group() == "+" else -1.0
            sign_pending = True
        elif m.lastgroup == "num":
            if started and cur_coef is not None:
                raise ValueError(f"two coefficients in one term in {text!r}")
            cur_coef = float(m.group())
            started = True
            last_var = None
        elif m.lastgroup == "var":
            name = m.group()
            idx = 0 if name == "z" else int(name[1:]) - 1
            if idx < 0:
                raise ValueError(f"bad variable {name!r}")
            cur_exp[idx] = cur_exp.get(idx, 0) + 1
            started = True
            last_var = idx
        elif m.lastgroup == "pow":
            if last_var is None:
                raise ValueError(f"exponent without variable in {text!r}")
            cur_exp[last_var] += int(m.group()[1:]) - 1
            last_var = None
        elif m.lastgroup == "mul":
            last_var = None
    flush()
    nv = max((max(e.keys()) + 1 for e, _ in terms if e), default=1)
    canon = []
    for e, c in terms:
        vec = tuple(e.get(k, 0) for k in range(nv))
        canon.append((vec, c))
    # merge duplicate exponent vectors
    merged = {}
    for e, c in canon:
        merged[e] = merged.get(e, 0.0) + c
    merged = {e: c for e, c in merged.items() if c != 0}
    return LaurentPoly.make(list(merged.items()))
