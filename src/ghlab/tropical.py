"""Laurent polynomials, Ronkin functions, amoebas and tropical limits.

The Ronkin function N(x) is the average of kappa*log|P(e^{x+i theta})| over
the torus.  Jensen's formula gives the average over the last variable
exactly from the roots r_k of the fiber polynomial sum_k a_k w^k, as
log|a_d| + sum_k max(x_l, log|r_k|); two variables leave a periodic average
over theta_1.  ``kappa`` in {1, 2} selects the normalization (kappa=1 makes
the tropical slopes equal to the exponent vectors literally).

Off the amoeba one term often outweighs the sum of all the others on the
whole fiber torus, with a margin that covers the rounding of the term
logs (``_dominant``).  There the answers are exact and need no roots:
the torus fiber holds no zero, grad N is the term's exponent vector (the
order of the complement component), and where the term is a vertex of the
Newton polytope, N is the term's log-modulus, the tropical polynomial
itself (Forsberg-Passare-Tsikh; Passare-Rullgard).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import GHLabError, QuadratureFailure


class TropicalError(GHLabError):
    pass


class RootFindingFailure(TropicalError):
    fault = "numerical"


# a term of the mini-grammar is a run of these: a coefficient, a factor
# z<k>[^e] or "*", with the coefficient, if any, before every factor; a
# sign splits terms unless it follows "^"
_TOKEN = re.compile(r"(?P<coef>\d+(?:\.\d*)?|\.\d+)"
                    r"|z(?P<var>\d*)(?:\^(?P<exp>-?\d+))?|\*")
_SIGN = re.compile(r"(?<!\^)([+-])")


@dataclass(frozen=True)
class LaurentPoly:
    """Finite sum of c * z^e with integer exponent vectors e in Z^l."""
    terms: tuple  # ((exponent tuple, complex coefficient), ...)
    nvars: int

    @classmethod
    def make(cls, terms):
        canon = [(tuple(int(k) for k in np.atleast_1d(e)), complex(c))
                 for e, c in terms]
        if any(not -2 ** 63 <= k < 2 ** 63 for e, _ in canon for k in e):
            raise ValueError("exponent does not fit in int64")
        if any(c == 0 for _, c in canon):
            raise ValueError("zero coefficient")
        if not canon:
            raise ValueError("polynomial needs at least one term")
        if len({e for e, _ in canon}) != len(canon):
            raise ValueError("duplicate exponents")
        lv = len(canon[0][0])
        if any(len(e) != lv for e, _ in canon):
            raise ValueError("mixed exponent lengths")
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


# ---------------------------------------------------------------------------
# the float range
# ---------------------------------------------------------------------------

# ln 2, and the log of the smallest normal float (-708.4; the largest is
# e^709.8)
_LN2, _TINY = math.log(2.0), math.log(np.finfo(float).tiny)


def _scale(logs, room):
    """The k of a power-of-two scale 2^-k of the terms e^logs, or 0."""
    # 2^-k takes the largest term to about 1, where products of ``room``
    # factors, each between e^-|top| and room * len(logs) * e^|top|, might
    # leave the normal floats
    big = room * (abs(max(logs)) + math.log(room * len(logs))) >= -_TINY
    return round(max(logs) / _LN2) if big else 0


def _exp_scaled(y, k):
    """e^y 2^-k, for y whose entries share one real part."""
    if not k:
        return np.exp(y)
    # a power of two scales a normal float exactly: where the unscaled
    # values are in range, no bit moves
    if abs(np.real(y).flat[0]) < -_TINY and abs(k) < 1022:
        return np.exp(y) * 2.0 ** -k
    return np.exp(y - k * _LN2)


# ---------------------------------------------------------------------------
# the term table and the dominant term
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _term_table(P):
    """What the dominant-term test and the fiber rows need of P alone, in
    Python numbers; cached per polynomial.  Per term (in the order of
    P.terms) its exponents padded to two, log|c| and whether it is a vertex
    of the Newton polytope; then max_i |log|c_i||, per variable (padded to
    two) max_i |e_ik|, and the least exponent and the degree span of the
    last variable."""
    exps = [tuple(e) + (0,) * (2 - P.nvars) for e, _ in P.terms]

    def turn(o, p, q):   # twice the signed area of the triangle o, p, q
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    # Andrew's monotone chain in exact ints keeps only strict turns, so a
    # term inside an edge (in one variable, between the ends) is no vertex
    hull, pts = set(), sorted(exps)
    for seq in (pts, pts[::-1]):   # the lower hull, then the upper
        chain = []
        for q in seq:
            while len(chain) > 1 and turn(chain[-2], chain[-1], q) <= 0:
                chain.pop()
            chain.append(q)
        hull.update(chain)
    logc = [math.log(abs(c)) for _, c in P.terms]
    last = [e[P.nvars - 1] for e in exps]
    return (exps, logc, [e in hull for e in exps], max(map(abs, logc)),
            [float(max(abs(e[k]) for e in exps)) for k in (0, 1)],
            min(last), max(last) - min(last))


def _dominant(P, x, tol):
    """The term a = argmax_i L_i, L_i = log|c_i| + <e_i, x>, when it
    outweighs all other terms on every fiber within ``tol`` of x in each
    coordinate; else None.

    ``P`` is the polynomial, ``x`` a finite point of length l and ``tol``
    the half-width of the box of log-moduli y with |y_k - x_k| <= tol for
    every k (0 for the point alone).  On that box |c_i z^e_i| / |c_a z^e_a|
    is at most exp(L_i - L_a + tol |e_i - e_a|_1), so where these sum to
    less than 1 over i != a, |P| >= |c_a z^e_a| - sum_i |c_i z^e_i| > 0 on
    every fiber of the box.  The test asks for less than 1 - delta, with
    delta = (32 (1 + M) + n) 2^-53 and M = max|log|c_i|| + sum_k max_i
    |e_ik| |x_k| >= |L_i|.  Why that covers the rounding, with u = 2^-53:
    each computed L_i is within (6 M + 2) u of the exact one (|c_i| and its
    log, the conversion and product of each e_ik x_k, two sums), so each
    difference L_i - L_a is within (12 M + 4) u.  Its own rounding, that of
    tol |e_i - e_a|_1 and that of their sum add at most 8 M u where every
    term is below 1 (then tol |e_i - e_a|_1 < L_a - L_i <= 2 M).  exp rounds
    within 4 u, and the sum of the n - 1 terms within (n - 1) u.  So the
    exact sum is at most the computed one times 1 + delta, which is below
    1.
    """
    exps, logc, _, lmax, reach, _, _ = _term_table(P)
    x0, x1 = (x.tolist() + [0.0])[:2]
    L = [c + (e0 * x0 + e1 * x1) for (e0, e1), c in zip(exps, logc)]
    a = L.index(max(L))
    (a0, a1), rest = exps[a], 0.0
    for i, (li, (e0, e1)) in enumerate(zip(L, exps)):
        if i != a:
            y = li - L[a] + tol * (abs(e0 - a0) + abs(e1 - a1))
            if y >= 0.0:   # a term of the sum is 1 or more (or inf)
                return None
            rest += math.exp(y)   # a NaN y leaves the sum NaN
    M = lmax + reach[0] * abs(x0) + reach[1] * abs(x1)
    return a if rest < 1.0 - (32.0 * (1.0 + M) + len(L)) * 2.0 ** -53 else None


# ---------------------------------------------------------------------------
# fiber roots and Jensen's formula
# ---------------------------------------------------------------------------

def _fiber_roots(P, x1, theta):
    """Coefficients and roots of P in its last variable, batched over theta_1.

    Returns (emin (N,), coeffs (N, d+1), roots (N, d), s) with P(e^{x1 + i
    theta_j}, w) = 2^s w^emin_j * sum_k coeffs[j, k] w^k (one row, P itself,
    in one variable).  Roots come from stacked companion matrices normalized
    by the larger end coefficient, so a vanishing a_d gives a root at
    infinity.  A multiple root splits into a cluster of width ~eps^{1/m};
    clusters of overlapping Newton inclusion disks d*|p(r)|/|p'(r)| (|p(r)|
    at least its rounding level) become their well-conditioned centroid.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    _, _, _, lmax, reach, emin, d = _term_table(P)
    coeffs = np.zeros((theta.size, d + 1), dtype=complex)
    # z1^e1 once per distinct exponent e1 != 0.  At e1 = 0 the term adds c
    # itself: c * e^0 differs from c at most in the sign of a zero, which a
    # sum that starts at +0.0 cannot show.  Where the terms c e^{e1 x1} may
    # leave the float range, a power of two scales each, e1 = 0 included.
    # The term table bounds what ``_scale`` tests; below its threshold
    # ``_scale`` returns 0, and the term logs are not needed
    scale = 0
    if (P.nvars == 2 and lmax + reach[0] * abs(x1)
            + math.log(len(P.terms)) >= -_TINY):
        scale = _scale([math.log(abs(c)) + e[0] * x1 for e, c in P.terms], 1)
    z1 = ({e1: _exp_scaled(e1 * (x1 + 1j * theta), scale)
           for e1 in {e[0] for e, _ in P.terms} if e1 or scale}
          if P.nvars == 2 else {})
    for e, c in P.terms:
        coeffs[:, e[-1] - emin] += c * z1[e[0]] if e[0] in z1 else c
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
        raise TropicalError("P vanishes on a whole fiber")
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
    return emin + shift, coeffs, np.where(flip[:, None], inv, s), scale


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


def _ronkin_1d(P, x, kappa):
    """kappa * N(x) of one-variable P on a vector x, from one root-finding."""
    emin, coeffs, roots, _ = _fiber_roots(P, 0.0, np.zeros(1))
    return kappa * (emin * x + _fiber_log_mean(coeffs, roots, x[:, None]))


@functools.lru_cache(maxsize=None)
def _split_content(P):
    """Split a two-variable P = q(z1) * Q(z1, z2), q monic; (roots of q, Q),
    the roots as a tuple; cached per polynomial.

    Over a root of q, P vanishes on the whole z2-line: no fiber root shows
    it, and it puts a log singularity into the theta_1 average.  The roots
    of the sparsest z2-coefficient at which all of them vanish to 1e-10 of
    their term scale are divided out.
    """
    e = P.exponents()
    if np.unique(e[:, 1], return_counts=True)[1].min() < 2:
        return (), P   # a z2-coefficient is a monomial in z1
    lo = e.min(axis=0)
    A = np.zeros(tuple(e.max(axis=0) - lo + 1), dtype=complex)
    A[tuple((e - lo).T)] = P.coefficients()
    col = min((c for c in map(np.trim_zeros, A.T) if c.size), key=len)
    _, _, candidates, _ = _fiber_roots(
        LaurentPoly.make([((i,), c) for i, c in enumerate(col) if c]), 0, 0)
    content = []
    for r in candidates[0]:
        pw = r ** np.arange(A.shape[0])
        if np.all(np.abs(pw @ A) <= 1e-10 * (np.abs(pw) @ np.abs(A))):
            for i in range(A.shape[0] - 1, 0, -1):   # synthetic division
                A[i - 1] += r * A[i]
            A = A[1:]
            content.append(complex(r))
    return tuple(content), (LaurentPoly.make(
        [((i + lo[0], k + lo[1]), A[i, k]) for i, k in zip(*np.nonzero(A))])
        if content else P)


# ---------------------------------------------------------------------------
# torus points and the theta_1 panels
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _torus_plan(P):
    """What ``_torus_cuts`` needs of P alone, cached: per term (i, j, c, w**i)
    with shifted exponents, d1, d2, w**d1, the DFT matrix on w and span."""
    e = P.exponents() - P.exponents().min(axis=0)
    d1, d2 = e.max(axis=0)
    w = np.exp(2j * np.pi * np.arange(2 * d1 * d2 + 1) / (2 * d1 * d2 + 1))
    terms = [(i, j, c, w ** i) for (i, j), c in zip(e, P.coefficients())]
    # the largest |log|c||, plus the margin log(2 d2 n) of ``_scale``
    span = max(abs(math.log(abs(c))) + math.log(max(2 * d2, 1) * len(e))
               for c in P.coefficients())
    return (terms, int(d1), int(d2), w[:, None] ** d1,
            np.vander(w, w.size, True).conj().T, span)


def _roots(p):
    """``np.roots(p)`` as numpy 1.24 and 2.x compute it, minus the wrapper."""
    # the companion matrix of p trimmed at both ends, a 0 per trailing zero
    nz, r = p.nonzero()[0], np.zeros(0)
    if not nz.size:
        return r
    q = p[nz[0]:nz[-1] + 1]
    if q.size > 1:
        A = np.diag(np.ones(q.size - 2, q.dtype), -1)
        A[0] = -q[1:] / q[0]
        r = np.linalg.eigvals(A)
    return np.concatenate((r, np.zeros(p.size - 1 - nz[-1], r.dtype)))


def _resultant_roots(f, g, dft):
    """Roots in w of Res_v(f, g), from its values at the K roots of unity w.

    f and g hold the v-coefficients (lowest first) of two polynomials at each
    w_k.  Res_v is the determinant of their Sylvester matrix, a polynomial of
    degree < K in w, interpolated by the planned DFT matrix ``dft``.  When it
    vanishes identically (to 1e-12 of the Hadamard bound of the matrices),
    f and g share a factor, and the first principal subresultant that does not
    vanish takes its place: its roots are where they share one more root.
    """
    K, m, n = len(dft), f.shape[1] - 1, g.shape[1] - 1
    for k in range(min(m, n) + 1):
        s = m + n - 2 * k
        S = np.zeros((K, s, m + n - k), dtype=complex)
        for i in range(n - k):
            S[:, i, i:i + m + 1] = f[:, ::-1]
        for i in range(m - k):
            S[:, n - k + i, i:i + n + 1] = g[:, ::-1]
        S = S[:, :, :s]
        R = np.linalg.det(S)
        if np.abs(R).max() > 1e-12 * np.prod(np.linalg.norm(S, axis=2),
                                             axis=1).max():
            break
    c = dft @ R / K
    # coefficients at rounding level above the true degree are noise
    top = np.flatnonzero(np.abs(c) > 1e-14 * np.abs(c).max())[-1]
    return _roots(c[top::-1])


def _torus_cuts(P, x):
    """Angles theta_1 in [0, 2 pi) where the theta_1-integrand of N(x) may
    fail to be analytic: a kink or a nearby complex singularity.

    With p(w, v) = P(e^{x_1} w, e^{x_2} v) as a polynomial of degrees
    (d1, d2) and its reflection through the torus q = w^{d1} v^{d2}
    conj(p)(1/w, 1/v), the torus points of P are roots w on |w| = 1 of
    Res_v(p, q), and fiber roots collide at the roots of Res_v(p, dp/dv).
    Both have degree at most 2 d1 d2 in w, so K = 2 d1 d2 + 1 roots of unity
    determine them; ``_torus_plan`` holds what depends on P alone.  The
    angles of every root within log-distance 1 of the circle are returned; a
    tangential torus point is a double root, which rounding splits by 1e-8.
    """
    terms, d1, d2, wd1, dft, span = _torus_plan(P)
    if d2 == 0:
        return np.zeros(0)
    # the resultants multiply up to 2 d2 rows of terms, each of |log| at
    # most span + d1 |x_1| + d2 |x_2| (with the margin of ``_scale``), which
    # 2^-k keeps in the float range; a_j that underflow drop out of
    # Res_v(p, dp/dv)
    safe = 2 * d2 * (span + d1 * abs(x[0]) + d2 * abs(x[1])) < -_TINY
    k = 0 if safe else _scale([math.log(abs(c)) + i * x[0] + j * x[1]
                               for i, j, c, _ in terms], 2 * d2)
    a, a1 = np.zeros((len(dft), d2 + 1), complex), np.zeros(d1 + 1, complex)
    for i, j, c, wi in terms:
        s = c * _exp_scaled(i * x[0] + j * x[1], k)
        a[:, j] += s * wi
        if j == 1:
            a1[i] += s
    # on |w| = 1 the v^j coefficient of q is w^{d1} conj(a_{d2 - j}(w)), and
    # dp/dv has coefficients j a_j.  b drops the a_j that underflowed; at
    # degree 1 in v, Res_v(p, dp/dv) is a_1(w), and at degree 0 a1 = 0
    b = a if safe else a[:, :np.flatnonzero(a.any(axis=0))[-1] + 1]
    collide = (_roots(a1[::-1]) if b.shape[1] <= 2 else
               _resultant_roots(b, b[:, 1:] * range(1, b.shape[1]), dft))
    r = np.concatenate(
        [_resultant_roots(a, wd1 * np.conj(a[:, ::-1]), dft), collide])
    # a root at 0 (log -inf) lies off the unit circle, as any root of |log|
    # above 1 does
    with np.errstate(divide="ignore"):
        near = np.abs(np.log(np.abs(r))) <= 1.0
    return np.angle(r[near]) % (2.0 * np.pi)


# a cut and the graded breakpoints on either side of it: panels shrink by 4
# toward the cut, from pi/8 down to 9.4e-8; and the breakpoints that keep
# every panel at most pi/8 long
_OFFSETS = np.pi / 8 * np.r_[0, 4.0 ** -np.arange(12), -4.0 ** -np.arange(12)]
_EIGHTHS = np.arange(16) * np.pi / 8.0


def _torus_panels(P, x):
    """Breakpoints b_0 < ... < b_m = b_0 + 2 pi of the theta_1 panels.

    Every cut of ``_torus_cuts`` is a breakpoint, the panels are graded
    geometrically toward it, and none is longer than pi/8.  Cuts closer
    than the finest offset, 9.4e-8, are merged into their mean, also across
    0 = 2 pi; a cut that merges with none keeps its bits.  Where fiber roots
    of equal modulus cross the circle together, rounding splits the cuts up
    to about 1e-5 apart, and they stay apart.  In floats, a drift sums the
    close gaps in order, and a cluster adds to its lead the mean of its
    members' drift past the lead's, summed from 0.0 in order.  Breakpoints
    closer than 1e-12 are merged.
    """
    cuts = np.sort(_torus_cuts(P, x)).tolist()
    if len(cuts) > 1:
        # the gap after each cut, the last one across 2 pi; starting after
        # the widest, no cluster straddles the end of the list
        gaps = [b - a for a, b in zip(cuts, cuts[1:] + [cuts[0] + math.tau])]
        k = gaps.index(max(gaps))   # at least 2 pi / len(cuts), not close
        groups, drift = [], 0.0   # [lead cut, drift at lead and members]
        for c, gap in zip(cuts[k + 1:] + cuts[:k + 1], gaps[k:] + gaps[:k]):
            if gap < _OFFSETS[12]:   # the finest offset
                drift += gap
                groups[-1].append(drift)
            else:
                groups.append([c, drift])
        cuts = [lead + functools.reduce(lambda t, d: t + (d - d0), ds, 0.0)
                / (1 + len(ds)) for lead, d0, *ds in groups]
    b = np.sort(np.append(_EIGHTHS, np.add.outer(cuts, _OFFSETS)) % math.tau)
    b = b[np.diff(b, append=b[0] + 2.0 * np.pi) > 1e-12]
    return np.append(b, b[0] + 2.0 * np.pi)


# ---------------------------------------------------------------------------
# Ronkin function
# ---------------------------------------------------------------------------

def _point(P, x, name):
    """x as floats, its last axis one entry per variable of P (at most 2),
    every entry finite."""
    if P.nvars > 2:
        raise ValueError(f"{name} supports at most 2 variables")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != P.nvars:
        raise ValueError("x has wrong length")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def ronkin(P, x, nodes=64, kappa=1, tol=1e-6):
    """Torus average of kappa*log|P| at log-modulus x.

    One variable: Jensen's formula, exact up to rounding.  Two variables:
    where a term a that is a vertex of the Newton polytope outweighs all
    the others on the fiber torus, with the margin of ``_dominant``, N is
    log|c_a| + <e_a, x> exactly (kappa times it is ``tropical_limit`` at
    x), and ``nodes`` and ``tol`` are not used: log|P| = L_a + Re log(1 +
    u) with |u| < 1, and no power of u = sum_{i != a} (c_i/c_a) z^{e_i -
    e_a} has a constant term.  Elsewhere a factor q(z1) of P is split off (its N is
    exact), and Jensen's formula in z2 for the rest is averaged over
    theta_1 by composite Gauss-Legendre quadrature on the panels of
    ``_torus_panels``, which are cut and graded where the integrand is not
    analytic or nearly so.  The ``nodes`` points of the rule are spread
    evenly over the panels, at least 16 to each.  Raises QuadratureFailure
    when the rule of half that order per panel differs by ``tol`` or more.
    """
    x = _point(P, x, "ronkin")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")

    if P.nvars == 1:
        return float(_ronkin_1d(P, x, kappa)[0])
    a = _dominant(P, x, 0.0)
    if a is not None and _term_table(P)[2][a]:
        return float(tropical_limit(P, x[None], kappa)[0])
    from .fields import _gauss_nodes

    # N_P = N_q + N_Q, and the monic one-variable q is exact by Jensen
    content, P = _split_content(P)
    base = sum(max(x[0], math.log(abs(r))) for r in content)
    b = _torus_panels(P, x)
    order = max(16, nodes // (b.size - 1))
    # both rules from one fiber evaluation
    (t, w), (tc, wc) = (_gauss_nodes(b[:-1, None], b[1:, None], n)
                        for n in (order, order // 2))
    emin, coeffs, roots, k = _fiber_roots(P, x[0], np.append(t, tc))
    f = (emin * x[1] + _fiber_log_mean(coeffs, roots, x[1])) / (2.0 * np.pi)
    fine, coarse = w.ravel() @ f[:t.size], wc.ravel() @ f[t.size:]
    if not abs(fine - coarse) < tol:
        raise QuadratureFailure(f"Ronkin: Gauss orders {order} and "
                                f"{order // 2} differ by {fine - coarse:.1e}")
    # the fiber rows were scaled by 2^-k
    return kappa * (base + float(fine) + k * _LN2)


@functools.lru_cache(maxsize=None)
def _swapped(P):
    """Two-variable P with its variables swapped; cached per polynomial."""
    return LaurentPoly.make([(e[::-1], c) for e, c in P.terms])


def ronkin_gradient(P, x):
    """Gradient of N (kappa = 1) at x.

    Where one term a outweighs all the others on the fiber torus, with the
    margin of ``_dominant``, it is e_a exactly: by Rouche's theorem every
    fiber polynomial has as many roots inside each circle as its term a,
    and Jensen's formula turns that count into the derivative.  Elsewhere
    dN/dx_l is the theta_1-average of emin plus the number of fiber roots
    inside |z_l| = e^{x_l} (Jensen's formula, differentiated).  The count is
    constant between torus points, so with two variables it is taken at the
    midpoint of each panel of ``_torus_panels`` and weighted by the panel's
    length; dN/dx_1 is the same with the variables swapped.  A factor in the
    other variable alone does not move dN/dx_l and is split off.  A fiber
    root on the circle (to 1e-12 in log-modulus) counts half.  So where N is
    not differentiable, because the torus points form a curve or, in one
    variable, x is the log-modulus of a root, the result is the mean of the
    two one-sided derivatives; a double root split by rounding counts 1.
    Between cuts that rounding split (``_torus_panels``) a panel takes one
    side's count: the gradient is off there, and ``ronkin`` is not.
    """
    x = _point(P, x, "ronkin_gradient")
    a = _dominant(P, x, 0.0)
    if a is not None:
        return np.array(P.terms[a][0], dtype=float)
    theta, weights, grad = np.zeros(1), np.ones(1), []
    swap = [(_swapped(P), x[::-1])] if P.nvars == 2 else []
    for Q, y in swap + [(P, x)]:
        if Q.nvars == 2:
            Q = _split_content(Q)[1]
            b = _torus_panels(Q, y)
            theta, weights = (b[1:] + b[:-1]) / 2.0, np.diff(b) / (2.0 * np.pi)
        emin, _, roots, _ = _fiber_roots(Q, y[0], theta)
        with np.errstate(divide="ignore"):
            gap = np.log(np.abs(roots)) - y[-1]
        inside = np.where(np.abs(gap) <= 1e-12, 0.5, gap < 0)
        grad.append(float(weights @ (emin + inside.sum(axis=1))))
    return np.array(grad)


def tropical_limit(P, pts, kappa=1, include_coefficients=True):
    """Piecewise-linear limit kappa * max_i(<e_i, t> + log|c_i|) at each row
    t of an (N, l) batch, as an (N,) array.

    With ``include_coefficients=False`` the offsets log|c_i| are dropped:
    the limit of N(lam t)/lam, whose corner locus passes through the spine.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    offsets = np.array([math.log(abs(c)) if include_coefficients else 0.0
                        for _, c in P.terms])
    # a matmul, not a multiply-and-sum: it rounds each <e_i, t> as np.dot
    # does, which the tests check bit for bit
    return kappa * np.max(pts @ P.exponents().T + offsets, axis=1)


# ---------------------------------------------------------------------------
# amoeba membership
# ---------------------------------------------------------------------------

def _amoeba_gap(P, x, tol=1e-6):
    """Distance in log-modulus from x to the zero set of P, and a zero.

    Over the fiber log|z_k| = x_k (k < l) the gap is min |log|z_l| - x_l|
    over the zeros: exact in one variable.  In two it is taken at the
    breakpoints of ``_torus_panels`` and at the panel midpoints.  Every
    torus point is a breakpoint, so the gap is 0 to rounding exactly when x
    is in the amoeba; where the torus points form a curve, the fiber roots on
    the circle stay there between the collisions that cut the panels.  Each
    root r of a factor q(z1) of P adds the zero (r, e^{x_2}) at gap
    |log|r| - x_1|.  The witness is the zero z attaining the gap, as the
    pair (log|z|, arg z) of (l,) arrays, so that it stays in the float range
    where z does not (None when P has no zeros, or for a fiber root past
    tol).
    """
    x = _point(P, x, "amoeba_contains")
    best, theta = (math.inf, None), np.zeros(1)
    if P.nvars == 2:
        content, P = _split_content(P)
        best = min(((abs(math.log(abs(r)) - x[0]),
                     (np.array([math.log(abs(r)), x[1]]),
                      np.array([np.angle(r), 0.0])))
                    for r in content), key=lambda t: t[0], default=best)
    if best[0] <= tol or _term_table(P)[-1] == 0:   # no fiber roots
        return best
    if P.nvars == 2:
        b = _torus_panels(P, x)
        theta = np.concatenate([b[:-1], (b[1:] + b[:-1]) / 2.0])
    _, _, roots, _ = _fiber_roots(P, x[0], theta)
    with np.errstate(divide="ignore"):
        gaps = np.abs(np.log(np.abs(roots)) - x[-1])
    j, k = np.unravel_index(np.argmin(gaps), gaps.shape)
    root = roots[j, k]
    w = ((np.append(x[:-1], np.log(np.abs(root))),
          np.append(np.full(len(x) - 1, theta[j]), np.angle(root)))
         if gaps[j, k] <= tol else None)
    return min(best, (float(gaps[j, k]), w), key=lambda t: t[0])


def amoeba_contains(P, x, tol=1e-6):
    """Does the torus fiber log|z| = x meet the zero set of P, to ``tol``?

    False without roots where one term outweighs all the others on every
    fiber within ``tol`` of x in each coordinate, with the margin of
    ``_dominant``: there |P| > 0, and ``_amoeba_gap`` measures in x_l the
    fiber roots and in x_1 the roots of a factor q(z1).  Elsewhere it is
    whether the gap of ``_amoeba_gap`` is at most ``tol``.
    """
    x = _point(P, x, "amoeba_contains")
    if _dominant(P, x, tol) is not None:
        return False
    return bool(_amoeba_gap(P, x, tol=tol)[0] <= tol)


def spine(pair):
    """Wall complex of sigma in the stored base-lattice coordinates."""
    from .lattice import wall_complex

    return wall_complex(pair.sigma, basis=pair.base_basis)


def laurent_from_pair(pair):
    """The pair's polynomial sum_i z^{v_i - rho} in base coordinates.

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
    return LaurentPoly.make([(e, 1.0) for e in exps])


# ---------------------------------------------------------------------------
# Hessian mass
# ---------------------------------------------------------------------------

def ronkin_hessian_mass(P, box):
    """The slope jump N'(b) - N'(a) over box = (a, b), as a (1, 1) array."""
    if P.nvars != 1:
        raise ValueError("ronkin_hessian_mass supports one variable only")
    a, b = np.asarray(box, dtype=float).reshape(2)
    return np.array([ronkin_gradient(P, [b]) - ronkin_gradient(P, [a])])


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


def ronkin_grid(P, points, lam=1.0, nodes=64, kappa=1):
    """N(lam t)/lam and its tropical limit at each row t of ``points``: in one
    variable Jensen's formula on the whole vector lam t, P's roots found once;
    in two, ``ronkin`` per row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    with np.errstate(over="ignore"):
        _point(P, lam * points, "ronkin")
    if nodes < 16:
        raise ValueError("nodes must be >= 16")
    vals = (_ronkin_1d(P, lam * points[:, 0], kappa) if P.nvars == 1 else
            np.array([ronkin(P, lam * t, nodes=nodes, kappa=kappa)
                      for t in points])) / lam
    lims = tropical_limit(P, points, kappa, include_coefficients=False)
    return RonkinGrid(points=points, lam=lam, values=vals, limits=lims)


def parse_laurent(text):
    """Parse the CLI mini-grammar: terms 'c*z1^a*z2^b' joined by + or -.

    ``z`` is an alias for ``z1``.  Coefficients are decimals, exponents are
    (possibly negative) integers, and ``*`` may be left out (``2z``,
    ``z1z2``).  Grammar (EBNF):

        poly   = [sign] term { sign term } ;
        term   = coef [ "*" factors ] | factors ;
        factors= factor { "*" factor } ;
        factor = var [ "^" int ] ;
        var    = "z" [ digits ] ;
        coef   = decimal ;
        sign   = "+" | "-" ;
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # the text split at every sign that is not an exponent's: "", sign,
    # term, sign, term, ...; '*'s before a leading sign are no term
    head = s.lstrip("*")
    parts = _SIGN.split(head if head[:1] in ("+", "-") else "+" + s)
    terms = []
    for sign, body in zip(parts[1::2], parts[2::2]):
        tokens = list(_TOKEN.finditer(body))
        coefs = [float(m["coef"]) for m in tokens if m["coef"]]
        kinds = "".join("c" if m["coef"] else "z" for m in tokens
                        if m[0] != "*")
        exps = {}
        for m in tokens:
            if m["var"] is not None:
                k = int(m["var"] or 1) - 1
                exps[k] = exps.get(k, 0) + int(m["exp"] or 1)
        if ("".join(m[0] for m in tokens) != body
                or not re.fullmatch("cz*|z+", kinds)
                or min(exps, default=0) < 0):
            raise ValueError(
                f"cannot parse term {body!r} of {text!r}: a term is a "
                "coefficient, factors z<k>[^e] with k >= 1, or a "
                "coefficient followed by factors")
        terms.append((exps, (-1.0 if sign == "-" else 1.0)
                      * (coefs or [1.0])[0]))
    nv = max((max(e) + 1 for e, _ in terms if e), default=1)
    merged = {}   # duplicate exponent vectors add up
    for e, c in terms:
        vec = tuple(e.get(k, 0) for k in range(nv))
        merged[vec] = merged.get(vec, 0.0) + c
    return LaurentPoly.make([(e, c) for e, c in merged.items() if c != 0])
