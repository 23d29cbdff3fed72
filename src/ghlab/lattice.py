"""Integer-lattice simplices, dual pairs, wall complexes and current pairing.

All lattice computations are exact (python integers, Hermite normal form);
floating point enters only in the metric operations (distances, quadrature).

Conventions
-----------
A wall complex lives in quotient coordinates chosen once per simplex: a basis
of the saturated difference lattice (for a dual pair, the annihilator of the
other simplex).  Wall weights are stored as the vertex difference w_i - w_j
with i < j, expressed in that basis; the orientation of a wall is the
ordering (i, j).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import GHLabError, QuadratureFailure


class LatticeError(GHLabError):
    pass


class NoCertificate(LatticeError):
    """No integral vector pairs to 1 with every vertex."""


class PairingViolation(LatticeError):
    """Some <v_i, w_j> differs from 1."""


class DegenerateSimplex(LatticeError):
    pass


# ---------------------------------------------------------------------------
# exact integer linear algebra
# ---------------------------------------------------------------------------

def row_hnf(rows):
    """Row Hermite normal form with transform.

    Returns (H, U) with U @ M = H, U unimodular, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Pure python integers, deterministic.
    """
    H = [list(map(int, r)) for r in rows]
    m = len(H)
    ncols = len(H[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def addrow(dst, src, q):
        H[dst] = [a - q * b for a, b in zip(H[dst], H[src])]
        U[dst] = [a - q * b for a, b in zip(U[dst], U[src])]

    r = 0
    for c in range(ncols):
        while True:
            pivots = [i for i in range(r, m) if H[i][c] != 0]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    addrow(i, r, H[i][c] // H[r][c])
                    if H[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                if H[i][c] != 0:
                    addrow(i, r, H[i][c] // H[r][c])
            r += 1
        if r == m:
            break
    return H, U


def integer_solve(A, b):
    """One integer solution x of A x = b, or None if there is none."""
    m = len(A)
    n = len(A[0]) if m else 0
    H, U = row_hnf([[A[i][j] for i in range(m)] for j in range(n)])
    # A @ U^T = H^T; solve H^T y = b by forward substitution on pivot rows
    pivots = []
    for k in range(n):
        nz = [j for j in range(m) if H[k][j] != 0]
        if nz:
            pivots.append((k, nz[0]))
    resid = [int(v) for v in b]
    y = [0] * n
    for k, p in pivots:
        piv = H[k][p]
        if resid[p] % piv != 0:
            return None
        y[k] = resid[p] // piv
        resid = [resid[j] - y[k] * H[k][j] for j in range(m)]
    if any(v != 0 for v in resid):
        return None
    # x = U^T y
    return [sum(U[k][i] * y[k] for k in range(n)) for i in range(n)]


def kernel_basis(A):
    """Basis of the saturated integer kernel lattice {x : A x = 0}."""
    m = len(A)
    n = len(A[0]) if m else 0
    H, U = row_hnf([[A[i][j] for i in range(m)] for j in range(n)])
    basis = [U[k] for k in range(n) if all(v == 0 for v in H[k])]
    return basis


def saturation_basis(vectors):
    """Basis of span_R(vectors) intersected with Z^r."""
    if not vectors:
        return []
    ann = kernel_basis(vectors)
    if not ann:
        r = len(vectors[0])
        return [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    return kernel_basis(ann)


def _reduce_against_lattice(x, basis):
    """Babai-style shortening of x modulo the integer lattice spanned by basis."""
    if not basis:
        return list(x)
    B = np.array(basis, dtype=float)
    G = B @ B.T
    out = np.array(x, dtype=float)
    for _ in range(4):
        coeff = np.linalg.solve(G, B @ out)
        q = np.rint(coeff).astype(int)
        if not q.any():
            break
        out = out - q @ np.array(basis, dtype=float)
    return [int(round(v)) for v in out]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class LatticeSimplex:
    """A lattice simplex: distinct, affinely independent integer vertices.

    The affine-distance-1 certificate (an integral functional pairing to 1
    with every vertex) is solved for at construction and stored when it
    exists.
    """

    def __init__(self, vertices):
        verts = [tuple(int(c) for c in v) for v in vertices]
        if not verts:
            raise DegenerateSimplex("simplex needs at least one vertex")
        rank = len(verts[0])
        if any(len(v) != rank for v in verts):
            raise DegenerateSimplex("vertices have mixed ambient ranks")
        if len(set(verts)) != len(verts):
            raise DegenerateSimplex("vertices are not distinct")
        diffs = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
        if diffs:
            H, _ = row_hnf(diffs)
            if sum(1 for row in H if any(row)) != len(diffs):
                raise DegenerateSimplex("vertices are not affinely independent")
        self.vertices = verts
        self.ambient_rank = rank
        self.dim = len(verts) - 1
        cert = integer_solve(verts, [1] * len(verts))
        if cert is not None:
            ann = kernel_basis(verts)
            cert = _reduce_against_lattice(cert, ann)
        self.certificate = tuple(cert) if cert is not None else None

    def differences(self):
        """All vertex differences w_i - w_j, keyed by (i, j) with i < j."""
        out = {}
        for i, j in itertools.combinations(range(len(self.vertices)), 2):
            out[(i, j)] = tuple(a - b for a, b in
                                zip(self.vertices[i], self.vertices[j]))
        return out

    def to_json(self):
        return json.dumps({"vertices": [list(v) for v in self.vertices]})

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text)["vertices"])

    def __repr__(self):
        return f"LatticeSimplex({list(map(list, self.vertices))})"


@dataclass(frozen=True)
class Wall:
    """One codimension-1 cone of a wall complex: {u : eq.u = 0, G u >= 0}."""
    equality: tuple
    inequalities: tuple        # rows g with g.u >= 0
    weight: tuple              # w_i - w_j in quotient-basis coordinates
    weight_ambient: tuple      # w_i - w_j in the ambient lattice
    pair: tuple                # (i, j) with i < j; orientation of the wall


@dataclass(frozen=True)
class WallComplex:
    ambient_dim: int
    walls: tuple
    basis: tuple = ()          # quotient basis vectors (rows, ambient coords)

    def to_json(self):
        return json.dumps({"walls": [
            {"eqs": list(w.equality), "ineqs": [list(g) for g in w.inequalities],
             "weight": list(w.weight)} for w in self.walls]})

    def __len__(self):
        return len(self.walls)


class DualSimplexPair:
    """Simplices tau in N and sigma in N* with all pairings equal to 1.

    Stores the tau certificate rho, and quotient bases: ``fiber_basis`` spans
    the annihilator of sigma in N (rank n), ``base_basis`` the annihilator of
    tau in N* (rank l).  Both are canonical HNF kernel bases.
    """

    def __init__(self, tau, sigma, rho, fiber_basis, base_basis):
        self.tau = tau
        self.sigma = sigma
        self.rho = rho
        self.n = tau.dim
        self.l = sigma.dim
        self.fiber_basis = fiber_basis
        self.base_basis = base_basis

    def pairing_matrix(self):
        return [[sum(a * b for a, b in zip(v, w)) for w in self.tau.vertices]
                for v in self.sigma.vertices]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def validate_dual_pair(tau, sigma):
    """Check the all-ones pairing and build the pair with its certificate."""
    if not isinstance(tau, LatticeSimplex):
        tau = LatticeSimplex(tau)
    if not isinstance(sigma, LatticeSimplex):
        sigma = LatticeSimplex(sigma)
    if tau.certificate is None:
        raise NoCertificate("tau admits no integral distance-1 certificate")
    if sigma.certificate is None:
        raise NoCertificate("sigma admits no integral distance-1 certificate")
    if tau.ambient_rank != sigma.ambient_rank:
        raise PairingViolation("tau and sigma live in different ranks")
    n, l = tau.dim, sigma.dim
    if n + l + 1 != tau.ambient_rank:
        raise PairingViolation(
            f"ambient rank {tau.ambient_rank} != n + l + 1 = {n + l + 1}")
    for v in sigma.vertices:
        for w in tau.vertices:
            if sum(a * b for a, b in zip(v, w)) != 1:
                raise PairingViolation(f"<{v}, {w}> != 1")
    fiber = kernel_basis(sigma.vertices)
    base = kernel_basis(tau.vertices)
    return DualSimplexPair(tau, sigma, tau.certificate, fiber, base)


def wall_complex(simplex, basis=None):
    """Normal-fan wall arrangement of a simplex in quotient coordinates.

    The fan is built from vertex differences only.  ``basis`` overrides the
    canonical HNF basis of the saturated difference lattice (rows are
    ambient lattice vectors).
    """
    if not isinstance(simplex, LatticeSimplex):
        simplex = LatticeSimplex(simplex)
    d = simplex.dim
    if d == 0:
        return WallComplex(ambient_dim=0, walls=())
    diffs = simplex.differences()
    if basis is None:
        basis = saturation_basis([list(v) for v in diffs.values()])
    basis = [tuple(int(c) for c in b) for b in basis]
    if len(basis) != d:
        raise DegenerateSimplex("quotient basis rank does not match simplex dim")
    basis_T = [[b[i] for b in basis] for i in range(len(basis[0]))]

    def coords(vec):
        c = integer_solve(basis_T, list(vec))
        if c is None:
            raise DegenerateSimplex(f"{vec} is not in the chosen basis lattice")
        return tuple(c)

    dcoords = {ij: coords(v) for ij, v in diffs.items()}
    walls = []
    k = len(simplex.vertices)
    for i, j in itertools.combinations(range(k), 2):
        eq = dcoords[(i, j)]
        ineqs = tuple(dcoords[(i, m)] if i < m else
                      tuple(-c for c in dcoords[(m, i)])
                      for m in range(k) if m not in (i, j))
        walls.append(Wall(equality=eq, inequalities=ineqs,
                          weight=dcoords[(i, j)], weight_ambient=diffs[(i, j)],
                          pair=(i, j)))
    return WallComplex(ambient_dim=d, walls=tuple(walls), basis=tuple(basis))


def _project_to_wall(point, wall):
    """Exact Euclidean projection distance from point to one wall cone."""
    p = np.asarray(point, dtype=float)
    d = p.size
    eq = np.array(wall.equality, dtype=float)
    G = np.array(wall.inequalities, dtype=float).reshape(-1, d)
    best = math.inf
    rows = list(range(G.shape[0]))
    # nearest point lies on some face: activate every subset of inequalities
    for r in range(len(rows) + 1):
        for active in itertools.combinations(rows, r):
            A = np.vstack([eq[None, :]] + [G[a][None, :] for a in active])
            # project p onto {x : A x = 0}
            AAt = A @ A.T
            try:
                lam = np.linalg.solve(AAt, A @ p)
            except np.linalg.LinAlgError:
                continue
            q = p - A.T @ lam
            if G.size and np.min(G @ q) < -1e-9 * (1.0 + np.abs(q).max()):
                continue
            best = min(best, float(np.linalg.norm(p - q)))
    return best


def distance_to_wall_complex(point, complex_):
    """Euclidean distance from a point to the union of walls."""
    if not complex_.walls:
        return math.inf
    return min(_project_to_wall(point, w) for w in complex_.walls)


def distance_to_discriminant(point, pi_tau, pi_sigma):
    """Distance in R^n x R^l to the product set Pi(tau) x Pi(sigma).

    The square distance to a product splits into the sum of the factor
    square distances.  An empty factor makes the product empty (inf).
    """
    point = np.asarray(point, dtype=float)
    n = pi_tau.ambient_dim
    l = pi_sigma.ambient_dim
    if point.size != n + l:
        raise ValueError(f"point has size {point.size}, expected {n + l}")
    if not pi_tau.walls or not pi_sigma.walls:
        return math.inf   # empty factor: the product set is empty
    du = distance_to_wall_complex(point[:n], pi_tau)
    dx = distance_to_wall_complex(point[n:], pi_sigma)
    return math.hypot(du, dx)


def _gauss_nodes(a, b, npts):
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _clip_ray_to_box(origin, direction, box, tmin=0.0):
    """Parameter interval of {origin + t*direction, t >= tmin} inside a box."""
    lo, hi = tmin, math.inf
    for k, (a, b) in enumerate(box):
        d = direction[k]
        o = origin[k]
        if abs(d) < 1e-15:
            if not (a - 1e-12 <= o <= b + 1e-12):
                return None
            continue
        t0, t1 = (a - o) / d, (b - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        lo, hi = max(lo, t0), min(hi, t1)
    if hi <= lo:
        return None
    return lo, hi


def pair_current(complex_, test_form, region, nodes=64):
    """Pair the weighted wall complex with a sampled test form over a box.

    ``test_form`` is a callable on points of R^d giving the density of the
    form against the Euclidean surface measure of each wall (orientation
    taken with the stored (i, j) ordering).  Supports d <= 2: point walls are
    evaluated, ray/line walls are integrated by Gauss-Legendre quadrature
    after clipping to the box.  Returns the weight-valued total as a float
    vector in quotient-basis coordinates.
    """
    d = complex_.ambient_dim
    if d == 0 or not complex_.walls:
        return np.zeros(max(d, 1))
    if d > 2:
        raise ValueError("pair_current supports quotient dimension <= 2")
    region = [(float(a), float(b)) for a, b in region]
    total = np.zeros(d, dtype=float)
    for wall in complex_.walls:
        weight = np.array(wall.weight, dtype=float)
        if d == 1:
            pt = np.zeros(1)
            if region[0][0] <= 0.0 <= region[0][1]:
                val = float(test_form(pt))
                if not math.isfinite(val):
                    raise QuadratureFailure("test form not finite on wall")
                total += val * weight
            continue
        # d == 2: wall is {u : eq.u = 0 (, g.u >= 0)}: a line or ray through 0
        eq = np.array(wall.equality, dtype=float)
        direction = np.array([-eq[1], eq[0]]) / np.linalg.norm(eq)
        halves = []
        if wall.inequalities:
            G = np.array(wall.inequalities, dtype=float)
            s = G @ direction
            if np.all(s >= -1e-12):
                halves = [direction]
            elif np.all(s <= 1e-12):
                halves = [-direction]
            else:
                continue   # empty cone (cannot happen for simplex fans)
        else:
            halves = [direction, -direction]
        for vdir in halves:
            span = _clip_ray_to_box(np.zeros(2), vdir, region, tmin=0.0)
            if span is None:
                continue
            # composite Gauss-Legendre: robust for localized test forms
            per_panel = 16
            panels = max(1, int(round(nodes / per_panel)))
            edges = np.linspace(span[0], span[1], panels + 1)
            acc = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                ts, ws = _gauss_nodes(a, b, per_panel)
                vals = np.array([test_form(t * vdir) for t in ts], dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise QuadratureFailure("test form not finite on wall")
                acc += float(np.dot(vals, ws))
            total += acc * weight
    return total
