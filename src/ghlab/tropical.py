"""Laurent polynomials, Ronkin functions, amoebas and tropical limits.

The Ronkin function N(x) is the average of kappa*log|P(e^{x+i theta})| over
the torus.  Jensen's formula gives the average over the last variable
exactly from the roots r_k of the fiber polynomial sum_k a_k w^k, as
log|a_d| + sum_k max(x_l, log|r_k|); two variables leave a periodic average
over theta_1.  ``kappa`` in {1, 2} selects the normalization (kappa=1 makes
the tropical slopes equal to the exponent vectors literally).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import GHLabError
from .lattice import wall_complex


class TropicalError(GHLabError):
    pass


class RootFindingFailure(TropicalError):
    pass


@dataclass(frozen=True)
class LaurentPoly:
    """Finite sum of c * z^e with integer exponent vectors e in Z^l."""
    terms: tuple  # ((exponent tuple, complex coefficient), ...)
    nvars: int

    @classmethod
    def make(cls, terms, nvars=None):
        canon = [(tuple(int(k) for k in np.atleast_1d(e)), complex(c))
                 for e, c in terms]
        if any(c == 0 for _, c in canon):
            raise ValueError("zero coefficient")
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

    def to_json(self):
        return json.dumps({"terms": [
            {"exp": list(e), "re": c.real, "im": c.imag} for e, c in self.terms]})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls.make([(t["exp"], complex(t.get("re", 0.0), t.get("im", 0.0)))
                         for t in data["terms"]])


# ---------------------------------------------------------------------------
# fiber roots and Jensen's formula
# ---------------------------------------------------------------------------

def _fiber_roots(P, x1, theta):
    """Coefficients and roots of P in its last variable, batched over theta_1.

    Returns (emin (N,), coeffs (N, d+1), roots (N, d)) with P(e^{x1 + i
    theta_j}, w) = w^emin_j * sum_k coeffs[j, k] w^k (one row, P itself, in
    one variable).  Roots come from stacked companion matrices normalized by
    the larger end coefficient, so a vanishing a_d gives a root at infinity.
    A multiple root splits into a cluster of width ~eps^{1/m}; clusters of
    overlapping Newton inclusion disks d*|p(r)|/|p'(r)| (|p(r)| at least its
    rounding level) are replaced by their well-conditioned centroid.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    last = P.exponents()[:, -1]
    emin, d = int(last.min()), int(last.max() - last.min())
    coeffs = np.zeros((theta.size, d + 1), dtype=complex)
    for e, c in P.terms:
        coeffs[:, e[-1] - emin] += (c * np.exp(e[0] * (x1 + 1j * theta))
                                    if P.nvars == 2 else c)
    # a row vanishing at both ends is w^s times a row with a_0 != 0
    shift = np.where((coeffs[:, 0] == 0) & (coeffs[:, -1] == 0),
                     np.argmax(coeffs != 0, axis=1), 0)
    if shift.any():
        coeffs = np.take_along_axis(
            coeffs, (np.arange(d + 1) + shift[:, None]) % (d + 1), axis=1)
    flip = np.abs(coeffs[:, 0]) > np.abs(coeffs[:, -1])
    poly = np.where(flip[:, None], coeffs[:, ::-1], coeffs)
    lead = poly[:, -1:]
    if d and not np.all(lead):
        raise RootFindingFailure("P vanishes on a whole fiber")
    if d <= 1:
        s = -poly[:, :d] / lead
    else:
        comp = np.zeros((theta.size, d, d), dtype=complex)
        comp[:, 0, :] = -poly[:, -2::-1] / lead
        comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        s = np.linalg.eigvals(comp)
    # Horner for p(s), p'(s) and the term scale sum_k |a_k s^k|
    p, dp, mag = np.repeat(lead, d, axis=1), np.zeros_like(s), np.abs(lead)
    for k in range(d - 1, -1, -1):
        dp = dp * s + p
        p = p * s + poly[:, k:k + 1]
        mag = mag * np.abs(s) + np.abs(poly[:, k:k + 1])
    res = np.abs(p)
    if not np.all(res <= 1e-10 * mag):
        raise RootFindingFailure(
            f"root residual {float(np.max(res / mag)):.2e} too large")
    if d > 1:
        # |p(s)| is known only to the rounding level eps * mag of Horner
        rad = (d * np.maximum(res, np.finfo(float).eps * mag)
               / np.maximum(np.abs(dp), np.finfo(float).tiny))
        near = (np.abs(s[:, :, None] - s[:, None, :])
                <= rad[:, :, None] + rad[:, None, :])
        for _ in range((d - 1).bit_length()):
            near = near @ near
        s = (near @ s[..., None])[..., 0] / near.sum(axis=-1)
    inv = np.divide(1.0, s, out=np.full(s.shape, np.inf, dtype=complex),
                    where=s != 0)
    return emin + shift, coeffs, np.where(flip[:, None], inv, s)


def _fiber_log_mean(coeffs, roots, x):
    """Jensen's formula per row: the mean of log|sum_k a_k w^k| on |w| = e^x.

    Where |a_0| > |a_d| it is log|a_0| + sum_k max(0, x - log|r_k|), in which
    a root at infinity contributes 0 instead of inf - inf.
    """
    with np.errstate(divide="ignore"):
        logr = np.log(np.abs(roots))
        top = np.log(np.abs(coeffs[:, -1]))
        bottom = np.log(np.abs(coeffs[:, 0]))
    lead = top >= bottom
    terms = np.where(lead[:, None], np.maximum(x, logr),
                     np.maximum(0.0, x - logr))
    return np.where(lead, top, bottom) + terms.sum(axis=1)


def _split_content(P):
    """Split a two-variable P = q(z1) * Q(z1, z2), q monic; (roots of q, Q).

    Over a root of q, P vanishes on the whole z2-line: no fiber root shows
    it, and it puts a log singularity into the theta_1 average.  The roots
    of the sparsest z2-coefficient at which all of them vanish to 1e-10 of
    their term scale are divided out.
    """
    e = P.exponents()
    if np.unique(e[:, 1], return_counts=True)[1].min() < 2:
        return [], P   # a z2-coefficient is a monomial in z1
    lo = e.min(axis=0)
    A = np.zeros(tuple(e.max(axis=0) - lo + 1), dtype=complex)
    A[tuple((e - lo).T)] = P.coefficients()
    col = min((c for c in map(np.trim_zeros, A.T) if c.size), key=len)
    _, _, candidates = _fiber_roots(
        LaurentPoly.make([((i,), c) for i, c in enumerate(col) if c]), 0, 0)
    content = []
    for r in candidates[0]:
        pw = r ** np.arange(A.shape[0])
        if np.all(np.abs(pw @ A) <= 1e-10 * (np.abs(pw) @ np.abs(A))):
            for i in range(A.shape[0] - 1, 0, -1):   # synthetic division
                A[i - 1] += r * A[i]
            A = A[1:]
            content.append(complex(r))
    return content, (LaurentPoly.make(
        [((i + lo[0], k + lo[1]), A[i, k]) for i, k in zip(*np.nonzero(A))])
        if content else P)


# ---------------------------------------------------------------------------
# Ronkin function
# ---------------------------------------------------------------------------

def ronkin(P, x, nodes=64, kappa=1, tol=1e-6, max_doublings=5):
    """Torus average of kappa*log|P| at log-modulus x.

    One variable: Jensen's formula, exact up to rounding.  Two variables:
    a factor q(z1) of P is split off (its N is exact), and Jensen's formula
    in z2 for the rest, continuous in theta_1 with kinks where a root
    crosses |z2| = e^{x2}, is averaged by the trapezoid rule on ``nodes``
    points, doubled until two estimates differ by less than ``tol`` or
    after ``max_doublings`` doublings; the error decays like nodes^-2.
    """
    if P.nvars > 2:
        raise ValueError("ronkin supports at most 2 variables")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != P.nvars:
        raise ValueError("x has wrong length")

    def mean(P, n, offset=0.0):
        emin, coeffs, roots = _fiber_roots(
            P, x[0], 2.0 * np.pi * (np.arange(n) + offset) / n)
        return float(np.mean(emin * x[-1]
                             + _fiber_log_mean(coeffs, roots, x[-1])))

    if P.nvars == 1:
        return kappa * mean(P, 1)
    # N_P = N_q + N_Q, and the monic one-variable q is exact by Jensen
    content, P = _split_content(P)
    base = sum(max(x[0], math.log(abs(r))) for r in content)
    n, prev, cur = nodes, math.inf, mean(P, nodes)
    for _ in range(max_doublings):
        if abs(cur - prev) < tol:
            break
        # doubling adds the midpoints; the old nodes keep their mean
        prev, cur = cur, 0.5 * (cur + mean(P, n, 0.5))
        n *= 2
    return kappa * (base + cur)


def ronkin_rescaled(P, t, lam, nodes=64, kappa=1, tol=1e-6):
    """N(lam * t) / lam."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return ronkin(P, lam * t, nodes=nodes, kappa=kappa, tol=tol) / lam


def tropical_limit(P, t, kappa=1, include_coefficients=True):
    """Piecewise-linear limit kappa * max_i(<e_i, t> + log|c_i|).

    With ``include_coefficients=False`` the offsets log|c_i| are dropped:
    the limit of N(lam t)/lam, whose corner locus passes through the spine.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vals = [float(np.dot(e, t)) + (math.log(abs(c)) if include_coefficients else 0.0)
            for e, c in P.terms]
    return kappa * max(vals)


# ---------------------------------------------------------------------------
# amoeba membership
# ---------------------------------------------------------------------------

def _amoeba_gap(P, x, tol=1e-6, sweep=720):
    """Distance in log-modulus from x to the zero set of P, and a zero.

    Over the fiber log|z_k| = x_k (k < l) the gap is min |log|z_l| - x_l|
    over the zeros: exact in one variable, a ``sweep``-angle scan of theta_1
    refined by zooming in on the best angle in two.  Each root r of a factor
    q(z1) of P adds the zero (r, e^{x_2}) at gap |log|r| - x_1|.  The
    witness is the zero attaining the gap, as an (l,) complex array (None
    when P has no zeros).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if P.nvars > 2:
        raise ValueError("amoeba_contains supports at most 2 variables")
    best = (math.inf, None)
    if P.nvars == 2:
        content, P = _split_content(P)
        for r in content:
            gap = abs(math.log(abs(r)) - x[0])
            if gap < best[0]:
                best = (gap, np.array([r, np.exp(x[1])]))
    if best[0] <= tol or np.ptp(P.exponents()[:, -1]) == 0:
        return best

    def nearest(theta):
        _, _, roots = _fiber_roots(P, x[0], theta)
        with np.errstate(divide="ignore"):
            gaps = np.abs(np.log(np.abs(roots)) - x[-1])
        j, k = np.unravel_index(np.argmin(gaps), gaps.shape)
        z = [np.exp(x[0] + 1j * theta[j])] if P.nvars == 2 else []
        return float(gaps[j, k]), np.array(z + [roots[j, k]]), theta[j]

    h = 2.0 * np.pi / sweep
    found = nearest(h * np.arange(sweep if P.nvars == 2 else 1))
    for _ in range(10 if P.nvars == 2 else 0):
        if found[0] <= tol:
            break
        # zoom: 33 angles across +-h about the best one, then h / 16 (h
        # reaches the rounding level of theta after 10 rounds)
        found = min(found, nearest(found[2] + np.linspace(-h, h, 33)),
                    key=lambda t: t[0])
        h /= 16.0
    return min(best, found[:2], key=lambda t: t[0])


def amoeba_contains(P, x, tol=1e-6, sweep=720):
    """Does the torus fiber log|z| = x meet the zero set of P?"""
    return bool(_amoeba_gap(P, x, tol=tol, sweep=sweep)[0] <= tol)


def spine(pair):
    """Wall complex of sigma in the stored base-lattice coordinates."""
    return wall_complex(pair.sigma, basis=pair.base_basis)


def laurent_from_pair(pair, coefficients=None):
    """The pair's polynomial sum_i c_i z^{v_i - rho} in base coordinates.

    Each v_i - rho annihilates tau, so it is integral in the stored base
    basis; the shift by rho changes the Ronkin function by a linear map.
    """
    from .lattice import integer_solve

    if pair.l == 0:
        return LaurentPoly.make([((0,), 1.0)])
    basis_T = [list(col) for col in zip(*pair.base_basis)]
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
    as boundary differences of finite-difference gradients (trapezoid rule on
    ``face_res`` points along each face); for l = 1 this is the slope jump
    across the interval.
    """
    l = P.nvars
    if l > 2:
        raise ValueError("supports at most 2 variables")
    box = np.asarray(box, dtype=float).reshape(l, 2)
    e = step * np.eye(l)

    def grad(x):
        return [(ronkin(P, x + e[q], nodes=nodes, kappa=kappa, tol=tol)
                 - ronkin(P, x - e[q], nodes=nodes, kappa=kappa, tol=tol))
                / (2.0 * step) for q in range(l)]

    out = np.zeros((l, l))
    for p in range(l):
        face = np.zeros((face_res if l == 2 else 1, l))
        if l == 2:
            face[:, 1 - p] = np.linspace(*box[1 - p], face_res)
        for end, sign in ((box[p, 1], 1.0), (box[p, 0], -1.0)):
            face[:, p] = end
            g = np.array([grad(x) for x in face])
            # trapezoid rule along the face
            out[p] += sign * (np.diff(face[:, 1 - p]) @ (g[1:] + g[:-1]) / 2.0
                              if l == 2 else g[0])
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
        return [list(map(float, p)) +
                [float(self.lam), float(v), float(t), abs(float(v - t))]
                for p, v, t in zip(self.points, self.values, self.limits)]

    def header(self):
        return ([f"t{k + 1}" for k in range(self.points.shape[1])]
                + ["lambda", "N_lambda", "N_inf", "abs_err"])


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
    pos, sign, sign_pending, terms = 0, 1.0, False, []
    cur_coef, cur_exp, started = None, {}, False

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
    merged = {}   # duplicate exponent vectors add up
    for e, c in terms:
        vec = tuple(e.get(k, 0) for k in range(nv))
        merged[vec] = merged.get(vec, 0.0) + c
    return LaurentPoly.make([(e, c) for e, c in merged.items() if c != 0])
