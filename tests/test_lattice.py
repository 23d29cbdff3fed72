import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab.lattice import (
    DegenerateSimplex,
    LatticeSimplex,
    NoCertificate,
    PairingViolation,
    WallComplex,
    distance_to_discriminant,
    distance_to_wall_complex,
    integer_solve,
    kernel_basis,
    row_hnf,
    saturation_basis,
    validate_dual_pair,
    wall_complex,
)

TAU_2D = [(0, 0, 1), (1, 0, 1)]
SIGMA_2D = [(0, 0, 1), (0, 1, 1)]


def brute_force_certificate(vertices, radius=3):
    """Oracle: exhaustive small-coefficient search for rho with <w, rho> = 1."""
    rank = len(vertices[0])
    for cand in itertools.product(range(-radius, radius + 1), repeat=rank):
        if all(sum(a * b for a, b in zip(w, cand)) == 1 for w in vertices):
            return cand
    return None


class TestIntegerLinearAlgebra:
    def test_row_hnf_transform_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(1, 5, size=2)
            M = rng.integers(-6, 7, size=(m, n)).tolist()
            H, U = row_hnf(M)
            Um = np.array(U, dtype=object)
            assert (Um @ np.array(M, dtype=object) == np.array(H, dtype=object)).all()
            det = round(np.linalg.det(np.array(U, dtype=float)))
            assert det in (1, -1)

    def test_integer_solve_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m, n = rng.integers(1, 5, size=2)
            A = rng.integers(-5, 6, size=(m, n)).tolist()
            x = rng.integers(-4, 5, size=n).tolist()
            b = (np.array(A) @ np.array(x)).tolist()
            sol = integer_solve(A, b)
            assert sol is not None
            assert (np.array(A) @ np.array(sol) == np.array(b)).all()

    def test_integer_solve_detects_infeasible(self):
        assert integer_solve([[2, 0], [0, 1]], [1, 1]) is None
        assert integer_solve([[2]], [4]) == [2]

    def test_kernel_basis_is_saturated(self):
        A = [[1, 1, 1]]
        B = kernel_basis(A)
        assert len(B) == 2
        for v in B:
            assert sum(v) == 0
        # (1,-1,0) must be an integer combination of the basis
        assert integer_solve([[b[i] for b in B] for i in range(3)], [1, -1, 0])

    def test_saturation_basis_of_nonprimitive_span(self):
        B = saturation_basis([[2, 2]])
        assert len(B) == 1
        assert tuple(map(abs, B[0])) == (1, 1)


class TestSimplexAndPair:
    def test_certificate_matches_exhaustive_oracle(self):
        tau = LatticeSimplex(TAU_2D)
        assert tau.certificate is not None
        assert all(sum(a * b for a, b in zip(w, tau.certificate)) == 1
                   for w in tau.vertices)
        assert brute_force_certificate(TAU_2D) is not None
        assert tau.certificate == (0, 0, 1)

    def test_validate_2d_model_pair(self):
        pair = validate_dual_pair(LatticeSimplex(TAU_2D), LatticeSimplex(SIGMA_2D))
        assert pair.n == 1 and pair.l == 1
        assert pair.rho == (0, 0, 1)
        assert all(sum(a * b for a, b in zip(v, w)) == 1
                   for v in pair.sigma.vertices for w in pair.tau.vertices)

    def test_standard_simplex_pairs_with_its_certificate(self):
        for n in (1, 2, 3):
            verts = np.eye(n + 1, dtype=int).tolist()
            pair = validate_dual_pair(LatticeSimplex(verts),
                                      LatticeSimplex([[1] * (n + 1)]))
            assert pair.n == n and pair.l == 0
            assert len(pair.fiber_basis) == n
            assert len(pair.base_basis) == 0

    def test_no_certificate(self):
        assert brute_force_certificate([(2, 0), (0, 1)]) is None
        tau = LatticeSimplex([(2, 0), (0, 1)])
        assert tau.certificate is None
        with pytest.raises(NoCertificate):
            validate_dual_pair(tau, LatticeSimplex([(1, 1)]))

    def test_pairing_violation(self):
        tau = LatticeSimplex([(1, 0, 0), (0, 1, 0)])
        sigma = LatticeSimplex([(1, 1, 1), (2, 1, 1)])  # <(2,1,1),(1,0,0)> = 2
        with pytest.raises(PairingViolation):
            validate_dual_pair(tau, sigma)

    def test_degenerate_simplices_rejected(self):
        with pytest.raises(DegenerateSimplex):
            LatticeSimplex([(1, 0), (1, 0)])
        with pytest.raises(DegenerateSimplex):
            LatticeSimplex([(0, 0), (1, 0), (2, 0)])

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_pairing_invariants_exact(self, a, b, c):
        # perturb the 2D model pair by lattice shifts that keep the pairing
        tau = [(0 + a, 0 + b, 1), (1 + a, 0 + b, 1)]
        sigma = SIGMA_2D
        M = [[sum(x * y for x, y in zip(v, w)) for w in tau] for v in sigma]
        if all(val == 1 for row in M for val in row):
            pair = validate_dual_pair(LatticeSimplex(tau), LatticeSimplex(sigma))
            dv = np.array(pair.sigma.vertices[1]) - np.array(pair.sigma.vertices[0])
            dw = np.array(pair.tau.vertices[1]) - np.array(pair.tau.vertices[0])
            assert int(dv @ dw) == 0


class TestWallComplex:
    def test_segment_gives_single_point_wall(self):
        wc = wall_complex(LatticeSimplex([(0,), (1,)]))
        assert wc.ambient_dim == 1
        assert len(wc) == 1
        w = wc.walls[0]
        assert w.inequalities == ()
        assert w.weight_ambient in ((1,), (-1,))
        # weight is w_0 - w_1 = (-1,) in the ambient lattice
        assert w.weight_ambient == (-1,)

    def test_point_simplex_empty_complex(self):
        wc = wall_complex(LatticeSimplex([(3, 4)]))
        assert wc.ambient_dim == 0
        assert len(wc) == 0

    def test_standard_2_simplex_tropical_line(self):
        wc = wall_complex(LatticeSimplex(np.eye(3, dtype=int).tolist()))
        assert wc.ambient_dim == 2
        assert len(wc) == 3
        for w in wc.walls:
            assert len(w.inequalities) == 1
        # oracle: dense sampling of the normal fan boundary.  Assign each
        # sample its argmax vertex; boundary samples must be near a wall.
        basis = np.array(wc.basis, dtype=float)
        pinv = np.linalg.pinv(basis)   # m = pinv @ u has quotient coords u
        verts = np.eye(3)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.normal(size=2)
            scores = verts @ (pinv @ u)
            top = np.sort(scores)[-2:]
            dist = distance_to_wall_complex(u, wc)
            if top[1] - top[0] < 1e-3:   # near a tie: close to the complex
                assert dist < 5e-3
            if dist < 1e-4:
                assert top[1] - top[0] < 1e-3

    def test_weights_antisymmetric_in_orientation(self):
        wc = wall_complex(LatticeSimplex(np.eye(3, dtype=int).tolist()))
        for w in wc.walls:
            i, j = w.pair
            d = np.array(w.weight_ambient)
            dw = (np.eye(3, dtype=int)[i] - np.eye(3, dtype=int)[j])
            assert (d == dw).all()


class TestDistance:
    def test_pythagoras_2d_model(self):
        pi = wall_complex(LatticeSimplex([(0,), (1,)]))
        assert distance_to_discriminant([3.0, 4.0], pi, pi) == pytest.approx(5.0)

    def test_point_on_discriminant(self):
        pi = wall_complex(LatticeSimplex([(0,), (1,)]))
        assert distance_to_discriminant([0.0, 0.0], pi, pi) == 0.0

    def test_point_on_tropical_ray(self):
        wc2 = wall_complex(LatticeSimplex(np.eye(3, dtype=int).tolist()))
        pi1 = wall_complex(LatticeSimplex([(0,), (1,)]))
        ray = wc2.walls[0]
        eq = np.array(ray.equality, dtype=float)
        v = np.array([-eq[1], eq[0]])
        g = np.array(ray.inequalities[0], dtype=float)
        if g @ v < 0:
            v = -v
        pt = 1.7 * v / np.linalg.norm(v)
        assert distance_to_discriminant([pt[0], pt[1], 0.0], wc2, pi1) < 1e-12

    def test_matches_dense_sampling_oracle(self):
        wc2 = wall_complex(LatticeSimplex(np.eye(3, dtype=int).tolist()))
        # oracle: sample many points on each wall, take the min distance
        samples = []
        for w in wc2.walls:
            eq = np.array(w.equality, dtype=float)
            v = np.array([-eq[1], eq[0]])
            g = np.array(w.inequalities[0], dtype=float)
            if g @ v < 0:
                v = -v
            v = v / np.linalg.norm(v)
            samples.append(np.outer(np.linspace(0, 8, 4001), v))
        samples = np.vstack(samples)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(-2, 2, size=2)
            brute = np.min(np.linalg.norm(samples - p, axis=1))
            exact = distance_to_wall_complex(p, wc2)
            assert abs(exact - brute) < 3e-3

    def test_empty_factor_gives_inf(self):
        pi1 = wall_complex(LatticeSimplex([(0,), (1,)]))
        empty = wall_complex(LatticeSimplex([(2, 5)]))
        assert math.isinf(distance_to_discriminant([1.0], pi1, empty))
