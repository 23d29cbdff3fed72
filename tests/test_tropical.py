import math
import warnings

import numpy as np
import pytest

from ghlab.lattice import LatticeSimplex, validate_dual_pair, wall_complex
from ghlab.tropical import (
    LaurentPoly,
    amoeba_contains,
    parse_laurent,
    ronkin,
    ronkin_grid,
    ronkin_hessian_mass,
    ronkin_rescaled,
    spine,
    tropical_limit,
)

# frozen 2-torus value of the Ronkin function of 1 + z1 + z2 at the origin,
# computed with the Jensen-reduction oracle in test_origin_value_oracle
MAHLER_1ZW = 0.3230659472194502

P1Z = LaurentPoly.make([((0,), 1.0), ((1,), 1.0)])
P2 = LaurentPoly.make([((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)])
PDOUBLE = LaurentPoly.make([((0,), 1.0), ((1,), 1.0), ((2,), 0.25)])


def jensen_oracle(P, x):
    """Independent 1-variable oracle: N(x) from the roots of P."""
    exps = P.exponents()[:, 0]
    emin = int(exps.min())
    deg = int(exps.max()) - emin
    coeffs = np.zeros(deg + 1, dtype=complex)
    for e, c in P.terms:
        coeffs[e[0] - emin] = c
    roots = np.roots(coeffs[::-1])
    lead = coeffs[-1]
    return (math.log(abs(lead)) + emin * x +
            float(np.sum(np.maximum(x, np.log(np.abs(roots))))))


class TestRonkin1D:
    def test_jensen_values(self):
        assert abs(ronkin(P1Z, 2.0) - 2.0) < 1e-6
        assert abs(ronkin(P1Z, -3.0) - 0.0) < 1e-6
        assert abs(jensen_oracle(P1Z, 2.0) - 2.0) < 1e-12
        assert abs(jensen_oracle(P1Z, -3.0) - 0.0) < 1e-12

    def test_constant_poly(self):
        P = LaurentPoly.make([((0,), 3.0)])
        for x in (-2.0, 0.0, 1.5):
            assert abs(ronkin(P, x) - math.log(3.0)) < 1e-12
            assert abs(ronkin(P, x, kappa=2) - 2 * math.log(3.0)) < 1e-12

    def test_matches_root_formula_away_from_amoeba(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            nterm = rng.integers(2, 5)
            exps = rng.choice(np.arange(-2, 5), size=nterm, replace=False)
            coeffs = rng.uniform(0.3, 2.0, size=nterm)
            P = LaurentPoly.make([((int(e),), c) for e, c in zip(exps, coeffs)])
            for x in rng.uniform(-2.5, 2.5, size=4):
                want = jensen_oracle(P, x)
                # skip points too close to a root modulus
                exps_ = P.exponents()[:, 0]
                emin = int(exps_.min())
                coeff_vec = np.zeros(int(exps_.max()) - emin + 1, dtype=complex)
                for e, c in P.terms:
                    coeff_vec[e[0] - emin] = c
                rts = np.roots(coeff_vec[::-1])
                rts = rts[np.abs(rts) > 0]
                if rts.size and np.min(np.abs(np.log(np.abs(rts)) - x)) < 0.05:
                    continue
                assert abs(ronkin(P, x, nodes=128) - want) < 1e-6

    def test_singular_fiber_returns_finite(self):
        # the fiber through x=0 contains the zero z=-1
        val = ronkin(P1Z, 0.0, nodes=128)
        assert abs(val - jensen_oracle(P1Z, 0.0)) < 1e-12

    @pytest.mark.parametrize("m", [2, 3, 5, 15])
    def test_multiple_root_on_fiber(self, m):
        # N = m*max(x, 0) for (1+z)^m; the companion eigenvalues split the
        # m-fold root z=-1 into a cluster of width ~eps^(1/m) (0.72 off at
        # m=15 if used root by root)
        P = LaurentPoly.make([((k,), float(math.comb(m, k)))
                              for k in range(m + 1)])
        assert abs(ronkin(P, 0.0)) < 1e-9

    def test_double_root_on_fiber(self):
        # 1 + z + z^2/4 = (1 + z/2)^2: N(x) = log(1/4) + 2*max(x, log 2)
        assert abs(ronkin(PDOUBLE, math.log(2.0))) < 1e-9


class TestRonkin2D:
    def test_origin_value_oracle(self):
        from scipy.integrate import quad

        # oracle: reduce the 2-torus average over z2 by Jensen's formula
        f = lambda t: max(math.log(abs(1 + np.exp(1j * t))), 0.0)
        val, _ = quad(f, 0.0, 2.0 * math.pi, limit=400, epsabs=1e-14)
        assert abs(val / (2 * math.pi) - MAHLER_1ZW) < 1e-9

    def test_origin_value_quadrature(self):
        val = ronkin(P2, (0.0, 0.0), nodes=128, max_doublings=2)
        assert abs(val - MAHLER_1ZW) < 1e-5

    def test_amoeba_points_quad_oracle(self):
        from scipy.integrate import quad

        rng = np.random.default_rng(11)
        points = []
        while len(points) < 3:
            x = rng.uniform(-2.0, 2.0, 2)
            m = np.exp([0.0, x[0], x[1]])
            if m.sum() > 2.0 * m.max() + 0.05:   # moduli close a triangle
                points.append(x)
        for x in points:
            # Jensen's formula in z2, then adaptive quadrature in theta_1,
            # split at the kinks |1 + z1| = |z2|
            f = lambda t: max(math.log(abs(1 + np.exp(x[0] + 1j * t))), x[1])
            c = (math.exp(2 * x[1]) - 1 - math.exp(2 * x[0])) / (
                2 * math.exp(x[0]))
            kinks = [math.acos(c), 2 * math.pi - math.acos(c)]
            want, _ = quad(f, 0.0, 2.0 * math.pi, points=kinks, limit=400,
                           epsabs=1e-13)
            got = ronkin(P2, x, tol=1e-9)
            assert abs(got - want / (2 * math.pi)) < 1e-7

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_vanishing_leading_coefficient(self, sign):
        # 1 + z2 +- z1*z2: the z2 coefficient 1 +- z1 vanishes at theta_1 = pi
        # (to rounding) or 0 (exactly), nodes of every grid; the average
        # equals that of 1 + z1 + z2
        P = LaurentPoly.make([((0, 0), 1.0), ((0, 1), 1.0), ((1, 1), sign)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = ronkin(P, (0.0, 0.0), nodes=128, tol=1e-9)
        assert math.isfinite(val)
        assert abs(val - MAHLER_1ZW) < 1e-5

    def test_fiber_vanishing_at_both_ends(self):
        # the z2^0 and z2^2 coefficients 1 - z1 vanish exactly at theta_1 = 0
        # but z2^1 does not; z1 -> -z1 leaves N unchanged and moves the zero
        # to theta_1 = pi, where it vanishes only to rounding
        P = parse_laurent("1-z1+z2+z2^2-z1*z2^2")
        Q = parse_laurent("1+z1+z2+z2^2+z1*z2^2")
        for x in [(0.0, 0.0), (0.0, 0.2), (0.1, -0.3)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ronkin(P, x, tol=1e-9)
            assert abs(got - ronkin(Q, x, tol=1e-9)) < 1e-12
            assert amoeba_contains(P, x) == amoeba_contains(Q, x)

    @pytest.mark.parametrize("text,want", [
        ("1+z1+z2+z1*z2", lambda x1, x2: max(x1, 0) + max(x2, 0)),
        ("1-z1+z2-z1*z2", lambda x1, x2: max(x1, 0) + max(x2, 0)),
        ("1+2*z1+z1^2+z2+2*z1*z2+z1^2*z2",
         lambda x1, x2: 2 * max(x1, 0) + max(x2, 0)),
        ("z2+z1*z2", lambda x1, x2: max(x1, 0) + x2),
        ("1+z1+z2^2+z1*z2^2", lambda x1, x2: max(x1, 0) + max(2 * x2, 0)),
    ], ids=["plus", "minus", "square", "no-z2-term", "zero-z2-column"])
    @pytest.mark.parametrize("x", [(0.0, 0.5), (0.0, -0.5), (0.3, 0.2),
                                   (-0.4, 0.1)])
    def test_factor_in_z1_alone(self, text, want, x):
        # P = q(z1) Q vanishes on the whole z2-line over each root of q
        # (z1 = -1 or 1, on the fiber circle at x1 = 0), so N_P = N_q + N_Q
        # is a sum of one-variable Ronkin functions
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = ronkin(parse_laurent(text), x, tol=1e-9)
        assert abs(val - want(*x)) < 1e-12

    def test_linear_region(self):
        # far outside the amoeba N is the dominant-term linear function
        assert abs(ronkin(P2, (4.0, 0.0), nodes=64) - 4.0) < 1e-6
        assert abs(ronkin(P2, (-4.0, -5.0), nodes=64) - 0.0) < 1e-6


class TestRescaledAndTropical:
    def test_rescaled_simple(self):
        assert abs(ronkin_rescaled(P1Z, 1.0, 10.0) - 1.0) < 1e-6
        a = ronkin_rescaled(P1Z, 0.7, 1.0)
        b = ronkin(P1Z, 0.7)
        assert abs(a - b) < 1e-12

    def test_rescaled_double_root_family(self):
        # root formula: N(x) = log(1/4) + 2*max(x, log 2), so N(lam*0)/lam = 0
        vals = [ronkin_rescaled(PDOUBLE, 0.0, lam, nodes=128)
                for lam in (1.0, 4.0, 16.0)]
        for v in vals:
            assert abs(v) < 2e-3
        assert all(vals[i + 1] <= vals[i] + 1e-6 for i in range(len(vals) - 1))

    def test_tropical_limit_values(self):
        assert tropical_limit(P1Z, 2.0) == pytest.approx(2.0)
        assert tropical_limit(P2, (-1.0, -1.0)) == pytest.approx(0.0)
        assert tropical_limit(PDOUBLE, 3.0) == pytest.approx(6.0 - math.log(4.0))
        assert tropical_limit(PDOUBLE, 3.0, kappa=2) == \
            pytest.approx(2 * (6.0 - math.log(4.0)))
        assert tropical_limit(PDOUBLE, 3.0, include_coefficients=False) == \
            pytest.approx(6.0)

    def test_convexity_property(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            exps = rng.choice(np.arange(-2, 4), size=3, replace=False)
            coeffs = rng.uniform(0.5, 1.5, size=3)
            P = LaurentPoly.make([((int(e),), c) for e, c in zip(exps, coeffs)])
            x1, x3 = sorted(rng.uniform(-2, 2, size=2))
            x2 = 0.5 * (x1 + x3)
            n1, n2, n3 = (ronkin(P, x, nodes=128) for x in (x1, x2, x3))
            assert n2 <= 0.5 * (n1 + n3) + 1e-5

    def test_majorization_bounds(self):
        # coefficient-1 polynomial: N is within kappa*log(#terms) of the limit
        k = math.log(len(P2.terms))
        for x in np.array([[-1.5, 0.3], [0.7, 0.9], [2.0, -1.0]]):
            n = ronkin(P2, x, nodes=128, max_doublings=1)
            t = tropical_limit(P2, x)
            assert n >= t - k - 1e-3
            assert n <= t + k + 1e-3

    def test_monotone_rescaling_convergence(self):
        grid = np.linspace(-1.5, 1.5, 7)
        sups = []
        for lam in (1.0, 2.0, 4.0, 8.0):
            sup = max(abs(ronkin_rescaled(PDOUBLE, t, lam, nodes=128) -
                          tropical_limit(PDOUBLE, t, include_coefficients=False))
                      for t in grid)
            sups.append(sup)
        for a, b in zip(sups, sups[1:]):
            assert b <= a + 1e-6

    def test_affine_off_amoeba(self):
        # gradient constancy by finite differences where the fiber misses P=0
        x0 = 2.5
        assert not amoeba_contains(P1Z, x0)
        h = 0.05
        g1 = (ronkin(P1Z, x0 + h) - ronkin(P1Z, x0 - h)) / (2 * h)
        g2 = (ronkin(P1Z, x0 + 3 * h) - ronkin(P1Z, x0 + h)) / (2 * h)
        assert abs(g1 - g2) < 1e-4


class TestAmoeba:
    def test_1d_membership(self):
        assert amoeba_contains(P1Z, 0.0)
        assert not amoeba_contains(P1Z, 1.0)
        assert not amoeba_contains(P1Z, -1.0)

    def test_2d_origin(self):
        # z1 = e^{i theta} at theta = +-2pi/3 solves |1 + z1| = 1 = |z2|
        assert amoeba_contains(P2, (0.0, 0.0), tol=1e-6)

    def test_2d_outside(self):
        assert not amoeba_contains(P2, (5.0, 0.0), tol=1e-6)
        assert not amoeba_contains(P2, (-3.0, -3.0), tol=1e-6)

    @pytest.mark.parametrize("text", ["1+z1+z2+z1*z2", "1-z1+z2-z1*z2",
                                      "z2+z1*z2", "1+z1+z2^2+z1*z2^2"])
    def test_factor_in_z1_alone(self, text):
        # the root z1 = -1 or 1 of the factor puts {0} x R in the amoeba
        P = parse_laurent(text)
        assert amoeba_contains(P, (0.0, 0.5))
        assert amoeba_contains(P, (0.0, -3.0))
        assert amoeba_contains(P, (1e-7, 2.0))
        assert not amoeba_contains(P, (0.5, 0.5))
        assert amoeba_contains(P, (0.5, 0.0)) == (text[0] == "1")

    def test_spine_matches_sigma_fan(self):
        tau = LatticeSimplex([(0, 0, 1), (1, 0, 1)])
        sigma = LatticeSimplex([(0, 0, 1), (0, 1, 1)])
        pair = validate_dual_pair(tau, sigma)
        sp = spine(pair)
        direct = wall_complex(pair.sigma, basis=pair.base_basis)
        assert sp.ambient_dim == direct.ambient_dim == 1
        assert [w.weight for w in sp.walls] == [w.weight for w in direct.walls]

    def test_pair_polynomial_and_spine_agree(self):
        from ghlab.tropical import laurent_from_pair
        from ghlab.lattice import distance_to_wall_complex

        tau = LatticeSimplex([(0, 0, 1), (1, 0, 1)])
        sigma = LatticeSimplex([(0, 0, 1), (0, 1, 1)])
        pair = validate_dual_pair(tau, sigma)
        P = laurent_from_pair(pair)
        # the 2D model pair produces 1 + z (up to exponent sign convention)
        exps = sorted(e[0] for e, _ in P.terms)
        assert exps in ([0, 1], [-1, 0])
        # corner locus of the tropical limit is the spine
        sp = spine(pair)
        for t in np.linspace(-2, 2, 9):
            vals = [float(np.dot(e, [t])) for e, _ in P.terms]
            tie = abs(vals[0] - vals[1]) < 1e-12
            on_spine = distance_to_wall_complex([t], sp) < 1e-12
            assert tie == on_spine


class TestHessianMass:
    def test_slope_jump_unit(self):
        m = ronkin_hessian_mass(P1Z, (-1.0, 1.0))
        assert abs(m[0, 0] - 1.0) < 1e-3

    def test_linear_region_zero(self):
        m = ronkin_hessian_mass(P1Z, (1.0, 2.0))
        assert abs(m[0, 0]) < 1e-3

    def test_kappa_doubles(self):
        m1 = ronkin_hessian_mass(P1Z, (-1.0, 1.0), kappa=1)
        m2 = ronkin_hessian_mass(P1Z, (-1.0, 1.0), kappa=2)
        assert abs(m2[0, 0] - 2 * m1[0, 0]) < 2e-3

    def test_2d_mass_matches_spine_weight(self):
        # mass of Hess N for 1+z1+z2 over a box containing only the
        # horizontal part of the spine; compare the dominant entry sign
        m = ronkin_hessian_mass(P2, ((-1.2, 1.2), (-1.2, 1.2)))
        assert m.shape == (2, 2)
        assert m[0, 0] > 0.5 and m[1, 1] > 0.5
        assert abs(m[0, 1] - m[1, 0]) < 1e-4

    def test_2d_mass_with_factor_in_z1_alone(self):
        # (1 - z1)(1 + z2): N = max(x1, 0) + max(x2, 0), whose Hessian has
        # mass 1 per unit length on each axis; the faces x2 = +-1 pass
        # through x1 = 0, whose fiber meets the root z1 = 1 of the factor
        # exactly at theta_1 = 0
        P = parse_laurent("1-z1+z2-z1*z2")
        m = ronkin_hessian_mass(P, ((-1.0, 1.0), (-1.0, 1.0)))
        assert np.allclose(m, 2.0 * np.eye(2), atol=1e-12)


class TestGridAndParse:
    def test_grid_rows(self):
        g = ronkin_grid(P1Z, [[-1.0], [0.5]], lam=2.0, nodes=64)
        rows = g.to_csv_rows()
        assert len(rows) == 2
        assert g.header() == ["t1", "lambda", "N_lambda", "N_inf", "abs_err"]

    def test_parse_simple(self):
        P = parse_laurent("1+z")
        assert P.terms == (((0,), 1 + 0j), ((1,), 1 + 0j))
        P = parse_laurent("1 + z + 0.25*z^2")
        assert P.terms == (((0,), 1 + 0j), ((1,), 1 + 0j), ((2,), 0.25 + 0j))

    def test_parse_two_vars_and_negatives(self):
        P = parse_laurent("1+z1+z2")
        assert P.nvars == 2
        P = parse_laurent("2*z1^-1*z2 - 3")
        assert (( -1, 1), 2 + 0j) in P.terms
        assert ((0, 0), -3 + 0j) in P.terms

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_laurent("1 + + z")
        with pytest.raises(ValueError):
            parse_laurent("q + 1")

    def test_json_roundtrip(self):
        P = LaurentPoly.make([((1, -2), 1.5 + 0.5j), ((0, 0), 1.0)])
        assert LaurentPoly.from_json(P.to_json()) == P
