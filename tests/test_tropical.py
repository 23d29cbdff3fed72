import math
import warnings

import numpy as np
import pytest

from ghlab import QuadratureFailure, tropical
from ghlab.decay import ronkin_collapse
from ghlab.lattice import LatticeSimplex, validate_dual_pair, wall_complex
from ghlab.tropical import (
    LaurentPoly,
    amoeba_contains,
    parse_laurent,
    ronkin,
    ronkin_gradient,
    ronkin_grid,
    ronkin_hessian_mass,
    spine,
    tropical_limit,
)

# frozen 2-torus value of the Ronkin function of 1 + z1 + z2 at the origin,
# computed with the Jensen-reduction oracle in test_origin_value_oracle
MAHLER_1ZW = 0.3230659472194502

P1Z = LaurentPoly.make([((0,), 1.0), ((1,), 1.0)])
P2 = LaurentPoly.make([((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)])
PDOUBLE = LaurentPoly.make([((0,), 1.0), ((1,), 1.0), ((2,), 0.25)])
# Boyd's family k + z1 + 1/z1 + z2 + 1/z2: reflection through the unit torus
# fixes it, so the resultant of P and its reflection vanishes identically
BOYD = {k: parse_laurent(f"{k}+z1+z1^-1+z2+z2^-1") for k in (1, 3, 4, 5)}


def smyth_mahler():
    """m(1 + z1 + z2) = (3 sqrt 3 / 4 pi) L(2, chi_-3) (Smyth), by mpmath."""
    import mpmath as mp

    third = mp.mpf(1) / 3
    L = (mp.zeta(2, third) - mp.zeta(2, 2 * third)) / 9
    return float(3 * mp.sqrt(3) / (4 * mp.pi) * L)


def triangle_margin(x):
    """Signed triangle-inequality margin of 1, e^{x1}, e^{x2}: positive
    exactly inside the amoeba of 1 + z1 + z2."""
    m = np.array([1.0, math.exp(x[0]), math.exp(x[1])])
    return float((m.sum() - 2.0 * m.max()) / m.max())


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
        val = ronkin(P2, (0.0, 0.0), nodes=128)
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


class TestFiberRows:
    """The fiber coefficient table takes z1^e1 once per distinct e1, and
    the content split once per polynomial; neither moves a bit."""

    @staticmethod
    def per_term_coefficients(P, x1, theta):
        # one complex exp per term, exponent 0 included
        last = P.exponents()[:, -1]
        out = np.zeros((theta.size, int(np.ptp(last)) + 1), dtype=complex)
        for e, c in P.terms:
            out[:, e[-1] - last.min()] += c * np.exp(e[0] * (x1 + 1j * theta))
        return out

    def test_coefficients_are_the_per_term_sum_byte_for_byte(self):
        # emin, the shift and the roots are functions of this table alone,
        # so equal bytes here mean equal outputs of _fiber_roots
        rng = np.random.default_rng(300)
        for _ in range(300):
            exps = {(int(rng.integers(-2, 4)), int(rng.integers(-1, 3)))
                    for _ in range(rng.integers(2, 7))}
            P = LaurentPoly.make([(e, complex(*rng.normal(size=2)))
                                  for e in exps])
            x1 = float(rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0)]))
            theta = np.r_[0.0, -0.0, np.pi,
                          rng.uniform(-np.pi, 3.0 * np.pi, 13)]
            _, coeffs, _, _ = tropical._fiber_roots(P, x1, theta)
            want = self.per_term_coefficients(P, x1, theta)
            assert coeffs.tobytes() == want.tobytes(), (P, x1)

    @pytest.mark.parametrize("text", [
        "1+z1+z2", "1+2z1z2+0.5z2^2-z1^2z2+0.3z1z2^2", "1+z1+z2+z1z2"])
    def test_a_cached_content_split_keeps_every_bit(self, text):
        # the same values with the split computed afresh for every call;
        # (1 + z1)(1 + z2) splits off 1 + z1
        P = parse_laurent(text)
        pts = np.random.default_rng(40).uniform(-3.0, 3.0, (40, 2))
        calls = (ronkin, tropical._amoeba_gap, ronkin_gradient)

        def values(fresh):
            out = []
            for x in pts:
                for f in calls:
                    if fresh:
                        tropical._split_content.cache_clear()
                    v = f(P, x)
                    out += [np.asarray(t).tobytes()
                            for t in (v if isinstance(v, tuple) else (v,))]
            return out

        assert values(False) == values(True)
        assert len(tropical._split_content(P)[0]) == (text == "1+z1+z2+z1z2")


class TestTorusPoints:
    """Two-variable Ronkin values, gradients and amoeba membership from the
    torus points {P = 0} and |z| = e^x, against independent oracles."""

    def test_mahler_measure_matches_smyth(self):
        assert abs(ronkin(P2, (0.0, 0.0)) - smyth_mahler()) < 1e-14

    def test_boyd_k4_is_four_catalan_over_pi(self):
        # m(4 + z1 + 1/z1 + z2 + 1/z2) = 4G/pi: the fiber has a double root
        # on the circle at theta_1 = pi
        import mpmath as mp

        want = float(4 * mp.catalan / mp.pi)
        assert abs(ronkin(BOYD[4], (0.0, 0.0)) - want) < 1e-13

    def test_split_double_root_is_one_cut(self):
        # the double torus point of Boyd k = 4 (at theta_1 = pi) and of
        # k = -4 (at theta_1 = 0, across the end of the period) is split by
        # rounding into two roots 5e-8 or 7e-8 apart: one cut, graded once
        minus4 = parse_laurent("z1+z1^-1+z2+z2^-1-4")
        for P in (BOYD[4], minus4):
            assert len(tropical._torus_panels(P, np.zeros(2))) - 1 <= 40
        assert abs(ronkin(minus4, (0.0, 0.0))
                   - ronkin(BOYD[4], (0.0, 0.0))) <= 1e-15

    def test_boyd_k1_matches_quad_oracle(self):
        # the fiber w^2 + (1 + 2 cos t) w + 1 has both roots on the circle
        # for |t| > pi/3 and a sqrt branch point at t = +-pi/3, where the
        # discriminant of the fiber vanishes
        from scipy.integrate import quad

        f = lambda t: math.acosh(max(abs(1.0 + 2.0 * math.cos(t)) / 2.0, 1.0))
        want, _ = quad(f, 0.0, math.pi, points=[math.pi / 3], limit=400,
                       epsabs=0.0, epsrel=1e-12)
        assert abs(want / math.pi - 0.2513304337132524) < 1e-15
        got = ronkin(BOYD[1], (0.0, 0.0), tol=1e-9)
        assert abs(got - 0.2513304337132524) < 1e-12

    def test_tentacle_point_is_exact(self):
        # off the amoeba (the tentacle at x2 = -8 is 3.4e-4 wide), N is the
        # dominant term x1; log|1 + z1| nearly blows up at theta_1 = pi
        assert abs(ronkin(P2, (0.001, -8.0)) - 0.001) < 1e-12

    def test_tiny_tol_raises_or_is_exact(self):
        try:
            val = ronkin(P2, (0.0, 0.0), tol=1e-20)
        except QuadratureFailure:
            return
        assert abs(val - smyth_mahler()) < 1e-14

    def test_missing_cuts_raise_instead_of_returning(self, monkeypatch):
        # without its cuts the sqrt branch points of Boyd k = 1 sit inside
        # panels: the two Gauss orders disagree and the call must fail
        monkeypatch.setattr(tropical, "_torus_cuts", lambda P, x: np.zeros(0))
        with pytest.raises(QuadratureFailure):
            ronkin(BOYD[1], (0.0, 0.0), tol=1e-9)

    def test_linear_fiber_cuts_where_a1_vanishes(self):
        # P = 1 + z2 (1 + z1) is linear in z2: its fiber roots meet infinity
        # where a_1(w) = e^{x2} (1 + e^{x1} w) vanishes, at theta_1 = pi.
        # The torus points solve |1 + e^{x1} e^{i t}| = e^{-x2} in closed form
        P = LaurentPoly.make([((0, 0), 1.0), ((0, 1), 1.0), ((1, 1), 1.0)])
        x1, x2 = -0.5, 0.2
        t = math.acos((math.exp(-2 * x2) - 1 - math.exp(2 * x1))
                      / (2 * math.exp(x1)))
        cuts = np.sort(tropical._torus_cuts(P, np.array([x1, x2])))
        assert np.allclose(cuts, [t, math.pi, 2 * math.pi - t],
                           rtol=0, atol=1e-12), cuts

    def test_tangential_torus_point_is_a_cut(self):
        # at (0, 0) the fiber (1 + z1)(1 + w^2) + w has both roots on the
        # circle only at theta_1 = 0, a double root of the torus-point
        # resultant; oracle: Jensen's formula with numpy roots, then quad
        from scipy.integrate import quad

        def f(t):
            a = 1.0 + np.exp(1j * t)
            r = np.roots([a, 1.0, a])
            return math.log(abs(a)) + sum(max(0.0, math.log(abs(z)))
                                          for z in r)

        want, _ = quad(f, -math.pi, math.pi, points=[0.0], limit=400,
                       epsabs=0.0, epsrel=1e-12)
        got = ronkin(parse_laurent("1+z1+z2+z2^2+z1*z2^2"), (0.0, 0.0),
                     tol=1e-9)
        assert abs(got - want / (2.0 * math.pi)) < 1e-12

    def test_torus_curve_membership_and_value(self):
        # (z1 - z2)(1 + z1 + z2) at x1 = x2: the torus points of z1 - z2
        # form a curve, so the resultant vanishes identically
        from scipy.integrate import quad

        x = (0.3, 0.3)
        P = parse_laurent("z1+z1^2-z2-z2^2")
        assert amoeba_contains(P, x)
        f = lambda t: max(math.log(abs(1 + np.exp(x[0] + 1j * t))), x[1])
        c = -1.0 / (2.0 * math.exp(x[0]))   # cos of the kinks, |1 + z1| = e^x2
        want, _ = quad(f, 0.0, 2.0 * math.pi,
                       points=[math.acos(c), 2 * math.pi - math.acos(c)],
                       limit=400, epsabs=0.0, epsrel=1e-12)
        try:
            got = ronkin(P, x, tol=1e-9)
        except QuadratureFailure:
            return
        assert abs(got - (x[0] + want / (2.0 * math.pi))) < 1e-9

    def test_torus_points_behind_a_self_reciprocal_factor(self):
        # Boyd k = 5 has no torus point at the origin but makes the
        # resultant vanish identically; the torus points of 1 + z1 + z2
        # must still cut the panels and witness membership
        factors = (BOYD[5], P2)
        terms = {}
        for e1, c1 in BOYD[5].terms:
            for e2, c2 in P2.terms:
                e = (e1[0] + e2[0], e1[1] + e2[1])
                terms[e] = terms.get(e, 0.0) + c1 * c2
        P = LaurentPoly.make([(e, c) for e, c in terms.items() if c != 0])
        for x in [(0.0, 0.0), (0.3, -0.2), (2.0, 0.1)]:
            assert amoeba_contains(P, x) == amoeba_contains(P2, x)
            want = sum(ronkin(f, x, tol=1e-9) for f in factors)
            assert abs(ronkin(P, x, tol=1e-9) - want) < 1e-12

    @pytest.mark.parametrize("k,inside", [(1, True), (3, True), (4, True),
                                          (5, False)])
    def test_self_reciprocal_membership(self, k, inside):
        # on the unit torus Boyd's P is k + 2 cos t1 + 2 cos t2: it vanishes
        # for k <= 4 (at the single point (-1, -1) for k = 4), never for 5
        assert amoeba_contains(BOYD[k], (0.0, 0.0)) == inside

    def test_gradient_is_triangle_angles(self):
        # grad N = (alpha_1, alpha_2)/pi inside the amoeba, alpha_j the angle
        # opposite the side e^{x_j} in the triangle with sides 1, e^x1, e^x2
        rng = np.random.default_rng(29)
        points = []
        while len(points) < 12:
            x = rng.uniform(-2.0, 2.0, 2)
            if triangle_margin(x) > 0.02:
                points.append(x)
        for x in points:
            a, b = np.exp(x)
            alpha1 = math.acos((1.0 + b * b - a * a) / (2.0 * b))
            alpha2 = math.acos((1.0 + a * a - b * b) / (2.0 * a))
            got = ronkin_gradient(P2, x)
            assert np.allclose(got, np.array([alpha1, alpha2]) / math.pi,
                               rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x,order", [((3.0, 0.5), (1, 0)),
                                         ((0.5, 3.0), (0, 1)),
                                         ((-3.0, -2.0), (0, 0))])
    def test_gradient_off_amoeba_is_component_order(self, x, order):
        # Forsberg-Passare-Tsikh: grad N on a complement component is its
        # order, a lattice point of the Newton polygon
        assert np.array_equal(ronkin_gradient(P2, x), order)

    @pytest.mark.parametrize("P", [BOYD[1], BOYD[4]])
    def test_gradient_at_a_curve_of_torus_points(self, P):
        # N(x) = N(-x) for Boyd's family.  For k = 1 both fiber roots lie on
        # the unit circle for |theta_1| > pi/3, so dN/dx_l jumps by
        # 2 * (2/3) across x_l = 0 and the gradient there is the mean of the
        # one-sided ones, 0.  For k = 4 the only torus point is (-1, -1), a
        # double root of the fiber, and N is differentiable
        h = np.array([1e-9, 0.0])
        right, left = ronkin_gradient(P, h), ronkin_gradient(P, -h)
        jump = 4.0 / 3.0 if P is BOYD[1] else 0.0
        assert abs(right[0] - left[0] - jump) < 1e-6
        assert np.allclose(ronkin_gradient(P, (0.0, 0.0)), 0.0, atol=1e-12)

    def test_gradient_one_variable(self):
        assert ronkin_gradient(PDOUBLE, 1.0)[0] == 2.0
        assert ronkin_gradient(PDOUBLE, 0.5)[0] == 0.0
        # at the double root's log-modulus log 2, the mean of 0 and 2
        assert ronkin_gradient(PDOUBLE, math.log(2.0))[0] == 1.0

    @staticmethod
    def ronkin_difference(P, x, h=1e-4):
        # the oracle: central differences of the value, whose integrand is
        # continuous, so it does not rest on the panel counts of the gradient
        def value(y):
            return ronkin(P, y, nodes=128, tol=1e-9)

        return np.array([(value(x + h * e) - value(x - h * e)) / (2.0 * h)
                         for e in np.eye(2)])

    @pytest.mark.parametrize("x", [(0.1, 0.1), (-0.2418, -0.4870)])
    def test_gradient_is_a_difference_of_ronkin(self, x):
        # simple torus points: both components agree to 1e-9, so the oracle
        # of the next test can pass
        x = np.array(x)
        assert np.allclose(ronkin_gradient(P2, x),
                           self.ronkin_difference(P2, x), rtol=0.0, atol=1e-7)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 21: the gradient at "
                       "coincident torus points")
    def test_gradient_at_coincident_torus_points(self):
        # z2 appears only as z2^3, so fiber roots of equal modulus cross the
        # circle three at a time; rounding splits their cuts up to about
        # 1e-5 apart, more than _torus_panels merges, and dN/dx2 reads
        # 0.30835037 where the differences give 0.30834795 (h = 1e-3 agrees)
        P = parse_laurent("1+z1+z2^3+z1^2z2^3")
        x = np.array([-0.2418, -0.4870])
        assert np.allclose(ronkin_gradient(P, x), self.ronkin_difference(P, x),
                           rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("f", [amoeba_contains, ronkin_gradient])
    @pytest.mark.parametrize("text,x,message", [
        ("1+z", (0.0, 0.5), "x has wrong length"),
        ("1+z1+z2", (0.1, 0.2, 0.3), "x has wrong length"),
        ("1+z1+z2", (0.1,), "x has wrong length"),
        ("1+z1+z2+z3", (0.1, 0.2, 0.3), "at most 2 variables")])
    def test_refuses_what_ronkin_refuses(self, f, text, x, message):
        # neither reads a stray x[-1], raises IndexError or returns one slope
        # for three variables
        with pytest.raises(ValueError, match=message):
            f(parse_laurent(text), x)

    def test_membership_at_the_boundary(self):
        # seeded points on the three boundary branches of the amoeba of
        # 1 + z1 + z2, pushed 1e-3, 1e-4 and 1e-5 along the normal to
        # either side; the triangle inequality decides each one
        rng = np.random.default_rng(31)
        checked = 0
        for branch in range(3):
            for _ in range(56):
                if branch == 0:   # 1 = e^x1 + e^x2
                    u = rng.uniform(0.02, 0.98)
                    x = np.log([u, 1.0 - u])
                else:             # e^x_b = 1 + e^x_other
                    s = rng.uniform(-4.0, 4.0)
                    x = np.array([math.log1p(math.exp(s)), s])[::(
                        1 if branch == 1 else -1)]
                grad = np.exp(x) * np.where(np.arange(1, 3) == branch,
                                            1.0, -1.0)
                normal = grad / np.linalg.norm(grad)
                for d in (1e-3, 1e-4, 1e-5):
                    for side in (1.0, -1.0):
                        y = x + side * d * normal
                        want = triangle_margin(y) > 0.0
                        assert amoeba_contains(P2, y) == want, (y, want)
                        checked += 1
        assert checked >= 1000


class FrozenTorus:
    """The theta_1 panels as they were computed before the per-polynomial
    torus plan, the oracle of TestTorusPlan: exponents, roots of unity,
    their powers and the Vandermonde matrix rebuilt at every point,
    ``np.roots``, and the cut merge in numpy.  It records the subresultant
    order that each resultant took and the size of every merged cluster."""

    def __init__(self):
        self.orders, self.clusters = [], []

    def resultant_roots(self, f, g, w):
        K, m, n = len(w), f.shape[1] - 1, g.shape[1] - 1
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
        self.orders.append(k)
        c = np.vander(w, K, increasing=True).conj().T @ R / K
        top = np.flatnonzero(np.abs(c) > 1e-14 * np.abs(c).max())[-1]
        return np.roots(c[top::-1])

    def cuts(self, P, x):
        e = P.exponents() - P.exponents().min(axis=0)
        d1, d2 = e.max(axis=0)
        if d2 == 0:
            return np.zeros(0)
        w = np.exp(2j * np.pi * np.arange(2 * d1 * d2 + 1)
                   / (2 * d1 * d2 + 1))
        a = np.zeros((w.size, d2 + 1), dtype=complex)
        for (i, j), c in zip(e, P.coefficients()):
            a[:, j] += c * np.exp(i * x[0] + j * x[1]) * w ** i
        if d2 == 1:
            a1 = np.zeros(d1 + 1, dtype=complex)
            for (i, j), c in zip(e, P.coefficients()):
                if j:
                    a1[i] += c * np.exp(i * x[0] + j * x[1])
            collide = np.roots(a1[::-1])
        else:
            collide = self.resultant_roots(a, a[:, 1:] * range(1, d2 + 1), w)
        r = np.concatenate([self.resultant_roots(
            a, w[:, None] ** d1 * np.conj(a[:, ::-1]), w), collide])
        with np.errstate(divide="ignore"):
            near = np.abs(np.log(np.abs(r))) <= 1.0
        return np.angle(r[near]) % (2.0 * np.pi)

    def panels(self, P, x):
        offsets = np.pi / 8 * np.r_[0, 4.0 ** -np.arange(12),
                                    -4.0 ** -np.arange(12)]
        cuts = np.sort(self.cuts(P, x))
        if cuts.size > 1:
            gaps = np.diff(cuts, append=cuts[0] + 2.0 * np.pi)
            shift = -(int(np.argmax(gaps)) + 1)
            cuts, gaps = np.roll(cuts, shift), np.roll(gaps, shift)[:-1]
            close = gaps < np.min(np.abs(offsets[1:]))
            group = np.r_[0, np.cumsum(~close)]
            drift = np.r_[0.0, np.cumsum(np.where(close, gaps, 0.0))]
            lead = np.searchsorted(group, np.arange(group[-1] + 1))
            self.clusters += np.bincount(group).tolist()
            cuts = cuts[lead] + (np.bincount(group, drift - drift[lead][group])
                                 / np.bincount(group))
        cuts = (cuts[:, None] + offsets).ravel()
        b = np.sort(np.append(np.arange(16) * np.pi / 8.0, cuts)
                    % (2.0 * np.pi))
        b = b[np.diff(b, append=b[0] + 2.0 * np.pi) > 1e-12]
        return np.append(b, b[0] + 2.0 * np.pi)


def torus_outcomes(P, x):
    """Bytes of ronkin (or its failure), ronkin_gradient and the gap of
    _amoeba_gap at x."""
    try:
        value = np.float64(ronkin(P, x)).tobytes()
    except QuadratureFailure as exc:
        value = str(exc)
    return [value, ronkin_gradient(P, x).tobytes(),
            np.float64(tropical._amoeba_gap(P, x)[0]).tobytes()]


class TestTorusPlan:
    """The torus plan moves what depends on P alone out of the per-point
    path; every panel and every value keeps the bits of FrozenTorus."""

    # d2 = 1, also with a negative exponent; d2 = 2 with negative
    # exponents, whose reflection fixes it at the origin (the subresultant
    # branch); the content factor 1 + z1; a tangential torus point at the
    # origin and Boyd k = 4's double one at theta_1 = pi, split by rounding
    # and merged
    CASES = ["1+z1+z2", "1+z1+z2+0.0000454z1z2", "1+z1^-1+z2+2z1^2z2",
             "1+z1+z1^-1+z2+z2^-1", "4+z1+z1^-1+z2+z2^-1", "1+z1+z2+z1z2",
             "1+z1+z2+z2^2+z1*z2^2"]

    @staticmethod
    def points(rng):
        # the origin, a seeded spread on and off the amoeba, and points
        # 1e-6 to either side of the boundary 1 = e^x1 + e^x2 of 1 + z1 + z2
        u = rng.uniform(0.05, 0.95, 4)
        edge = np.log(np.c_[u, 1.0 - u])
        return np.r_[np.zeros((1, 2)), rng.uniform(-2.5, 2.5, (16, 2)),
                     rng.uniform(-0.2, 0.2, (4, 2)), edge + 1e-6, edge - 1e-6]

    def test_every_bit_is_the_frozen_layer(self, monkeypatch):
        frozen, rng = FrozenTorus(), np.random.default_rng(34)
        for text in self.CASES:
            P = parse_laurent(text)
            Q = tropical._split_content(P)[1]
            for x in self.points(rng):
                assert np.array_equal(tropical._torus_panels(Q, x),
                                      frozen.panels(Q, x)), (text, x)
                live = torus_outcomes(P, x)
                with monkeypatch.context() as m:
                    m.setattr(tropical, "_torus_panels", frozen.panels)
                    assert torus_outcomes(P, x) == live, (text, x)
        # the sweep took the subresultant branch and merged a cluster
        assert max(frozen.orders) > 0 and max(frozen.clusters) > 1

    def test_the_plan_is_built_once_per_polynomial(self):
        P = parse_laurent("2+z1+z2-0.5z1z2^2")
        pts = np.random.default_rng(35).uniform(-3.0, 3.0, (100, 2))
        tropical._torus_plan.cache_clear()
        tropical._swapped.cache_clear()
        for x in pts:
            amoeba_contains(P, x)
            try:
                ronkin(P, x)
            except QuadratureFailure:
                pass
        assert tropical._torus_plan.cache_info().misses == 1
        for x in pts:
            ronkin_gradient(P, x)
        # one more plan, that of P with its variables swapped
        assert tropical._torus_plan.cache_info().misses == 2
        assert tropical._swapped.cache_info().misses == 1


class TestDominantTerm:
    """Where one term outweighs all the others on the fiber torus, the
    values, gradients and membership come from that term alone; with the
    certificate switched off, the torus path gives the same answers."""

    # negative exponents; a content factor in z1; Boyd k = 4; the term 3 z1
    # of 1 + 3 z1 + z1^2 + 0.01 z2 and the constant 5 inside a triangle are
    # dominant terms that are no vertex
    CASES = ["1+z1+z2", "1+z1+z2+0.0000454z1z2", "1+z1^-1+z2+2z1^2z2",
             "z1^-2+3+z2^-1+z1z2", "z2+z1*z2", "1-z1+z2-z1*z2",
             "4+z1+z1^-1+z2+z2^-1", "1+3z1+z1^2+0.01z2",
             "5+z1^2z2+z1z2^2+z1^-1z2^-1", "2+z1+z2+z1z2^2",
             "1+z1^3+z2^3+0.5z1z2"]

    @staticmethod
    def vertex(P, a):
        return tropical._term_table(P)[2][a]

    def test_agrees_with_the_torus_path(self, monkeypatch):
        rng, seen = np.random.default_rng(38), {"vertex": 0, "inner": 0}
        for text in self.CASES:
            P = parse_laurent(text)
            certified = []
            for x in rng.uniform(-4.0, 4.0, (40, 2)):
                a = tropical._dominant(P, x, 0.0)
                if a is not None:
                    seen["vertex" if self.vertex(P, a) else "inner"] += 1
                    certified.append((x, ronkin(P, x), ronkin_gradient(P, x),
                                      amoeba_contains(P, x)))
            assert len(certified) >= 5, text
            with monkeypatch.context() as m:
                m.setattr(tropical, "_dominant", lambda P, x, tol: None)
                for x, value, grad, inside in certified:
                    assert abs(ronkin(P, x) - value) <= 1e-12, (text, x)
                    assert np.allclose(ronkin_gradient(P, x), grad,
                                       rtol=0.0, atol=1e-12), (text, x)
                    assert amoeba_contains(P, x) == inside, (text, x)
        assert seen["vertex"] >= 200 and seen["inner"] >= 10, seen

    def test_a_vertex_term_gives_the_tropical_polynomial_bit_for_bit(self):
        rng, checked = np.random.default_rng(39), 0
        for text in self.CASES:
            P = parse_laurent(text)
            for kappa in (1, 2):
                for x in rng.uniform(-6.0, 6.0, (30, 2)):
                    a = tropical._dominant(P, x, 0.0)
                    if a is not None and self.vertex(P, a):
                        assert ronkin(P, x, kappa=kappa) == tropical_limit(
                            P, [x], kappa)[0], (text, x)
                        checked += 1
        assert checked >= 300

    def test_an_inner_dominant_term_gives_the_gradient_not_the_value(self):
        # 3 z1 outweighs 1 + z1^2 + 0.01 z2 on the unit torus, but it is no
        # vertex: N(0) is the Mahler measure of 1 + 3 z1 + z1^2, the log of
        # its larger root modulus (3 + sqrt 5) / 2, not log 3
        P = parse_laurent("1+3z1+z1^2+0.01z2")
        a = tropical._dominant(P, np.zeros(2), 0.0)
        assert P.terms[a][0] == (1, 0) and not self.vertex(P, a)
        assert ronkin_gradient(P, (0.0, 0.0)).tolist() == [1.0, 0.0]
        want = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        assert abs(want - 0.96242365) < 1e-8
        assert abs(ronkin(P, (0.0, 0.0)) - want) < 1e-12

    def test_no_roots_at_certified_points(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("torus path taken")

        monkeypatch.setattr(tropical, "_torus_panels", refuse)
        monkeypatch.setattr(tropical, "_fiber_roots", refuse)
        P = parse_laurent("1+z1+z2+0.0000454z1z2")
        for x, order in (((3.0, 0.5), [1, 0]), ((-2.0, -3.0), [0, 0]),
                         ((8.0, 9.0), [0, 1]), ((12.0, 12.0), [1, 1])):
            assert ronkin(P, x) == tropical_limit(P, [x])[0]
            assert ronkin_gradient(P, x).tolist() == order
            assert not amoeba_contains(P, x)
        assert ronkin_gradient(PDOUBLE, 2.0).tolist() == [2.0]
        assert not amoeba_contains(PDOUBLE, -1.0)

    def test_a_margin_below_the_rounding_is_not_certified(self):
        # at |x| = 1e8 one ulp is 1.5e-8, and the L_i are known only to a
        # few of them: a term 1.5e-8 below the largest is truly outweighed,
        # but the certificate cannot tell; 1e-5 below, it can
        x1 = 1e8
        near = np.array([x1, np.nextafter(x1, math.inf)])
        # the computed sum of the other terms is below 1, by 1.5e-8
        assert math.exp(near[0] - near[1]) + math.exp(-near[1]) < 1.0
        assert tropical._dominant(P2, near, 0.0) is None
        a = tropical._dominant(P2, np.array([x1, x1 + 1e-5]), 0.0)
        assert P2.terms[a][0] == (0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_are_refused(self, bad):
        for P, x in ((P1Z, [bad]), (P2, [0.5, bad]), (P2, [bad, 0.5])):
            for f in (ronkin, ronkin_gradient, amoeba_contains):
                with pytest.raises(ValueError, match="x must be finite"):
                    f(P, x)
            with pytest.raises(ValueError, match="x must be finite"):
                ronkin_grid(P, [[0.0] * P.nvars, x])
        # lam t must be finite too
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda must be positive"):
                ronkin_grid(P1Z, [[0.5]], lam=lam)
        with pytest.raises(ValueError, match="x must be finite"):
            ronkin_grid(P1Z, [[1e300]], lam=1e10)


class TestRescaledAndTropical:
    def test_rescaled_simple(self):
        assert abs(ronkin_grid(P1Z, [[1.0]], lam=10.0).values[0] - 1.0) < 1e-6
        a = ronkin_grid(P1Z, [[0.7]]).values[0]
        b = ronkin(P1Z, 0.7)
        assert abs(a - b) < 1e-12

    def test_rescaled_double_root_family(self):
        # root formula: N(x) = log(1/4) + 2*max(x, log 2), so N(lam*0)/lam = 0
        vals = [ronkin(PDOUBLE, lam * 0.0, nodes=128) / lam
                for lam in (1.0, 4.0, 16.0)]
        for v in vals:
            assert abs(v) < 2e-3
        assert all(vals[i + 1] <= vals[i] + 1e-6 for i in range(len(vals) - 1))

    def test_tropical_limit_values(self):
        assert tropical_limit(P1Z, [[2.0]])[0] == pytest.approx(2.0)
        assert tropical_limit(P2, [(-1.0, -1.0)])[0] == pytest.approx(0.0)
        assert tropical_limit(PDOUBLE, [[3.0]])[0] == \
            pytest.approx(6.0 - math.log(4.0))
        assert tropical_limit(PDOUBLE, [[3.0]], kappa=2)[0] == \
            pytest.approx(2 * (6.0 - math.log(4.0)))
        assert tropical_limit(PDOUBLE, [[3.0]],
                              include_coefficients=False)[0] == \
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
            n = ronkin(P2, x, nodes=128)
            t = tropical_limit(P2, [x])[0]
            assert n >= t - k - 1e-3
            assert n <= t + k + 1e-3

    def test_monotone_rescaling_convergence(self):
        grid = np.linspace(-1.5, 1.5, 7)
        sups = []
        for lam in (1.0, 2.0, 4.0, 8.0):
            lims = tropical_limit(PDOUBLE, grid[:, None],
                                  include_coefficients=False)
            sup = max(abs(ronkin(PDOUBLE, lam * t, nodes=128) / lam - lim)
                      for t, lim in zip(grid, lims))
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


# a double root, negative exponents, |a_0| > |a_d| (the reflected root
# formula) and a monomial, on a grid through 0, -0 and a root's log-modulus
GRID_POLYS = ["1+z", "1+z+0.25*z^2", "0.5+z^3", "z^-2+z^3", "1-z^9+0.3*z^4",
              "3*z^-1+z+0.001*z^12", "z"]
GRID_1D = np.r_[np.linspace(-3.0, 3.0, 61), 0.0, -0.0, math.log(2.0)][:, None]


def tropical_limit_loop(P, t, kappa=1, include_coefficients=True):
    """Reference for one row t: one np.dot per term of P, a Python max."""
    vals = [float(np.dot(e, t))
            + (math.log(abs(c)) if include_coefficients else 0.0)
            for e, c in P.terms]
    return kappa * max(vals)


def per_point_grid(P, points, lam, kappa=1, nodes=64):
    """Reference loop: one ``ronkin`` of lam t, divided by lam, and one
    tropical limit per row."""
    vals = [ronkin(P, lam * t, nodes=nodes, kappa=kappa) / lam
            for t in points]
    lims = [tropical_limit_loop(P, t, kappa=kappa, include_coefficients=False)
            for t in points]
    return np.array(vals), np.array(lims)


class TestTropicalLimitBatch:
    @pytest.mark.parametrize("nvars", [1, 2])
    def test_batch_is_the_per_row_loop_bit_for_bit(self, nvars):
        rng = np.random.default_rng(40 + nvars)
        for _ in range(4):
            exps = {tuple(int(e) for e in rng.integers(-3, 13, size=nvars))
                    for _ in range(5)}
            P = LaurentPoly.make([(e, complex(*rng.normal(size=2)))
                                  for e in sorted(exps)])
            pts = rng.uniform(-40.0, 40.0, size=(2000, nvars))
            pts[::7] *= rng.uniform(1e-3, 1.0, size=(len(pts[::7]), 1))
            for kappa in (1, 2):
                for coeffs in (True, False):
                    got = tropical_limit(P, pts, kappa, coeffs)
                    want = np.array([tropical_limit_loop(P, t, kappa, coeffs)
                                     for t in pts])
                    assert np.array_equal(got.view(np.int64),
                                          want.view(np.int64)), (P, kappa)


class TestOneVariableGrid:
    @pytest.mark.parametrize("text", GRID_POLYS)
    def test_grid_is_the_per_point_loop_bit_for_bit(self, text):
        P = parse_laurent(text)
        for lam in (0.3, 1.0, 25.0):
            for kappa in (1, 2):
                g = ronkin_grid(P, GRID_1D, lam=lam, kappa=kappa)
                vals, lims = per_point_grid(P, GRID_1D, lam, kappa)
                assert np.array_equal(g.values.view(np.int64),
                                      vals.view(np.int64)), (lam, kappa)
                assert np.array_equal(g.limits.view(np.int64),
                                      lims.view(np.int64)), (lam, kappa)

    @pytest.mark.parametrize("text", GRID_POLYS)
    def test_collapse_is_the_per_point_sup(self, text):
        P, lambdas = parse_laurent(text), [0.3, 1.0, 25.0]
        want = []
        for lam in lambdas:
            vals, lims = per_point_grid(P, GRID_1D, lam)
            worst = 0.0
            for n, tl in zip(vals.tolist(), lims.tolist()):
                worst = max(worst, abs(n - tl))
            want.append(worst)
        sups = ronkin_collapse(P, lambdas, GRID_1D).sup_distances
        assert sups == want
        assert all(type(s) is float for s in sups)

    def test_empty_grid(self):
        g = ronkin_grid(P1Z, np.zeros((0, 1)), lam=5.0)
        assert g.values.shape == g.limits.shape == (0,)
        rep = ronkin_collapse(PDOUBLE, [1.0, 5.0, 25.0], np.zeros((0, 1)))
        assert rep.sup_distances == [0.0, 0.0, 0.0]

    def test_roots_are_found_once_per_lambda(self, monkeypatch):
        calls, fiber_roots = [], tropical._fiber_roots

        def counted(*args):
            calls.append(args)
            return fiber_roots(*args)

        monkeypatch.setattr(tropical, "_fiber_roots", counted)
        ronkin_grid(P1Z, np.linspace(-3.0, 3.0, 61)[:, None], nodes=128)
        assert len(calls) == 1
        calls.clear()
        ronkin_collapse(PDOUBLE, [1.0, 5.0, 25.0],
                        np.linspace(-2.0, 2.0, 17)[:, None], nodes=128)
        assert len(calls) <= 3

    def test_refuses_what_ronkin_refuses(self):
        # both variable counts refuse up front, an empty grid too
        for P in (P1Z, P2):
            pts = np.linspace(-1.0, 1.0, 5)[:, None] * np.ones(P.nvars)
            with pytest.raises(ValueError, match="nodes must be >= 16"):
                ronkin_grid(P, pts, nodes=8)
            with pytest.raises(ValueError, match="nodes must be >= 16"):
                ronkin_collapse(P, [1.0, 5.0], pts, nodes=8)
            for grid in (pts, pts[:0]):
                with pytest.raises(ValueError, match="lambda must be positive"):
                    ronkin_grid(P, grid, lam=0.0)
            with pytest.raises(ValueError, match="x has wrong length"):
                ronkin_grid(P, np.zeros((3, 3 - P.nvars)))

    def test_refuses_three_variables_on_an_empty_grid(self):
        # the variable count is refused up front, as ronkin refuses it per
        # row: no rows do not make a polynomial in three variables valid
        P3 = LaurentPoly.make([((0, 0, 0), 1.0), ((1, 0, 0), 1.0),
                               ((0, 1, 0), 1.0), ((0, 0, 1), 1.0)])
        for rows in (0, 2):
            with pytest.raises(ValueError, match="at most 2 variables"):
                ronkin_grid(P3, np.zeros((rows, 3)))


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

    def test_is_the_difference_of_two_gradients(self):
        rng = np.random.default_rng(36)
        for text in ("1+z", "1+z+0.25z^2", "2-3z^2+z^5", "z^-2+0.5+z^3"):
            P = parse_laurent(text)
            for a, b in rng.uniform(-3.0, 3.0, (20, 2)):
                m = ronkin_hessian_mass(P, (a, b))
                want = ronkin_gradient(P, [b]) - ronkin_gradient(P, [a])
                assert m.shape == (1, 1) and m[0, 0] == want[0], (text, a, b)

    def test_refuses_two_variables(self):
        with pytest.raises(ValueError, match="one variable"):
            ronkin_hessian_mass(P2, ((-1.2, 1.2), (-1.2, 1.2)))

    def test_gradient_on_the_box_faces_with_factor_in_z1_alone(self):
        # (1 - z1)(1 + z2): N = max(x1, 0) + max(x2, 0), so the gradient is
        # (step(x1), step(x2)) with 1/2 on the axes; the faces x2 = +-1 pass
        # through x1 = 0, whose fiber meets the root z1 = 1 of the factor
        # exactly at theta_1 = 0
        P = parse_laurent("1-z1+z2-z1*z2")

        def step(t):
            return 0.5 if t == 0.0 else float(t > 0.0)

        for side in (-1.0, 1.0):
            for t in np.linspace(-1.0, 1.0, 17):
                for x in ((side, t), (t, side)):
                    want = [step(x[0]), step(x[1])]
                    assert np.allclose(ronkin_gradient(P, x), want,
                                       atol=1e-12), x


class TestFloatRange:
    """Far from the origin the terms c e^{<e, x>}, the Sylvester
    determinants of the torus cuts and the powers of z1 in the fiber rows
    leave the float range unless they are scaled.  Off the amoeba N is the
    dominant term's log|c| + <e, x>, and the gradient is its exponent."""

    @pytest.mark.parametrize("x,value,grad", [
        ((0.0, -800.0), math.log(2.0), [0.0, 0.0]),
        ((-800.0, 0.0), math.log(2.0), [0.0, 0.0]),
        ((300.0, -1000.0), 300.0, [1.0, 0.0]),
        ((0.0, 800.0), 1600.0, [1.0, 2.0]),
        ((800.0, 10.0), 820.0, [1.0, 2.0]),
    ])
    def test_far_points_off_the_amoeba(self, x, value, grad):
        P = parse_laurent("2+z1+z2+z1z2^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(ronkin(P, x) - value) <= 1e-12 * abs(value)
            assert ronkin_gradient(P, x).tolist() == grad
            assert not amoeba_contains(P, x)

    def test_the_scale_keeps_every_bit_of_values_in_range(self):
        # at x2 = 38.5 the largest term of 1 + z1^3 + z2^3 + 0.5 z1 z2 is
        # e^115.5: the 6 x 6 Sylvester determinants stay below e^693, yet
        # the range test scales them; the cuts keep the unscaled bits
        P = parse_laurent("1+z1^3+z2^3+0.5z1z2")
        for x in ([0.0, 38.5], [0.3, 38.5], [38.5, -0.2]):
            x = np.array(x)
            assert tropical._scale(
                [math.log(abs(c)) + np.dot(e, x) for e, c in P.terms],
                6) != 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(tropical._torus_cuts(P, x),
                                      FrozenTorus().cuts(P, x)), x


class TestGridAndParse:
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


class TestParserOracle:
    """parse_laurent against polynomials built from random term lists, with
    no ghlab parsing: each term is (sign, coefficient or None, [(variable,
    exponent or None), ...]), rendered to text and summed here."""

    @staticmethod
    def random_terms(rng):
        terms = []
        for _ in range(rng.integers(1, 6)):
            factors = [(int(rng.integers(1, 4)),
                        [None, -2, -1, 0, 1, 3][rng.integers(6)])
                       for _ in range(rng.integers(0, 4))]
            coef = (None if factors and rng.random() < 0.4
                    else int(rng.integers(1, 9)) / 4)
            terms.append(("-" if rng.random() < 0.5 else "+", coef, factors))
        if rng.random() < 0.5:
            # a duplicate term, which merges, or cancels with the other sign
            sign, coef, factors = terms[rng.integers(len(terms))]
            if rng.random() < 0.5:
                sign = "+" if sign == "-" else "-"
            terms.insert(rng.integers(len(terms) + 1), (sign, coef, factors))
        return terms

    @staticmethod
    def render(terms, rng):
        out = []
        for k, (sign, coef, factors) in enumerate(terms):
            tokens = []
            if coef is not None:
                text = f"{coef:g}"
                tokens.append(text[1:] if text.startswith("0.")
                              and rng.random() < 0.5 else text)
            for var, exp in factors:
                # z is an alias for z1
                name = "z" if var == 1 and rng.random() < 0.5 else f"z{var}"
                tokens.append(name + ("" if exp is None else f"^{exp}"))
            # '*' written or left out between tokens (2z, z1z2)
            body = tokens[0]
            for tok in tokens[1:]:
                body += ("*" if rng.random() < 0.5 else "") + tok
            if k or sign == "-" or rng.random() < 0.3:
                body = sign + (" " if rng.random() < 0.3 else "") + body
            out.append(body)
        return (" " if rng.random() < 0.3 else "").join(out)

    @staticmethod
    def expected(terms):
        nv = max((var for _, _, fs in terms for var, _ in fs), default=1)
        merged = {}
        for sign, coef, factors in terms:
            vec = [0] * nv
            for var, exp in factors:
                vec[var - 1] += 1 if exp is None else exp
            c = (-1.0 if sign == "-" else 1.0) * (1.0 if coef is None
                                                  else coef)
            merged[tuple(vec)] = merged.get(tuple(vec), 0.0) + c
        kept = [(e, c) for e, c in merged.items() if c != 0]
        return LaurentPoly.make(kept) if kept else None

    def test_random_term_lists(self):
        rng = np.random.default_rng(29)
        cancelled = 0
        for _ in range(400):
            terms = self.random_terms(rng)
            text = self.render(terms, rng)
            want = self.expected(terms)
            if want is None:
                cancelled += 1
                with pytest.raises(ValueError):
                    parse_laurent(text)
            else:
                assert repr(parse_laurent(text)) == repr(want), text
        assert cancelled > 0

    @pytest.mark.parametrize("text", [
        "", "  ", "1+", "1+-z", "1 + + z", "2*3", "2.5.5", "z+^2", "2^3",
        "^2", "z0", "1+z00", "q+1", "1+z*y", "z^99999999999999999999",
        "z^2.5", "z2.5", "z*2", "1+z1*3z2"],
        ids=["empty", "blank", "dangling-sign", "two-signs", "spaced-signs",
             "two-coefficients", "two-decimal-points",
             "exponent-after-sign", "exponent-on-coefficient",
             "exponent-alone", "z0", "z00", "stray-letter",
             "stray-factor", "exponent-past-int64",
             "coefficient-after-exponent", "coefficient-after-variable",
             "coefficient-after-star", "coefficient-between-factors"])
    def test_refusals(self, text):
        with pytest.raises(ValueError):
            parse_laurent(text)

    @pytest.mark.parametrize("text, want", [
        ("2.5z", [((1,), 2.5)]), ("2.5*z^2", [((2,), 2.5)]),
        ("1 + z + 0.25*z^2", [((0,), 1.0), ((1,), 1.0), ((2,), 0.25)]),
        (".5z1z2^-1", [((1, -1), 0.5)])])
    def test_a_coefficient_before_the_factors(self, text, want):
        assert parse_laurent(text) == LaurentPoly.make(want)
