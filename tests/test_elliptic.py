import math
import random
from fractions import Fraction

import pytest
import sympy

import smallpoints.elliptic as el
from smallpoints.elliptic import (
    CanonicalHeightBudgetError,
    DuplicationEnvelope,
    ECPoint,
    EllipticCurveQ,
    OffCurveError,
    SingularCurveError,
    canonical_height,
    duplication_envelope,
    ec_add,
    ec_mul,
    ec_neg,
    is_torsion,
    naive_height,
    require_on_curve,
    torsion_points,
)

# y^2 = x^3 - 2 with generator (3, 5); duplication-limit height frozen from
# a 10-step exact big-integer evaluation (tail bound 2.8657e-6)
E_MINUS2 = EllipticCurveQ(0, -2)
GEN = ECPoint.of(3, 5)
HHAT_ORACLE_10 = 1.349576596725103028401501
HHAT_ORACLE_TAIL = 2.866e-6
# package value at tol=1e-8, pinned for regression
HHAT_GEN = 1.349576835661059

E_PLUS1 = EllipticCurveQ(0, 1)  # torsion Z/6
E_CM = EllipticCurveQ(-1, 0)  # full 2-torsion


def gen_points(curve, base, count, rng):
    pts = []
    for _ in range(count):
        k = rng.randint(-6, 6)
        pts.append(ec_mul(curve, k, base))
    return pts


class TestGroupLaw:
    def test_identity(self):
        assert ec_add(E_MINUS2, GEN, ECPoint.identity()) == GEN
        assert ec_add(E_MINUS2, ECPoint.identity(), GEN) == GEN

    def test_inverse(self):
        assert ec_add(E_MINUS2, GEN, ec_neg(GEN)).is_identity

    def test_closure_on_curve(self):
        rng = random.Random(3)
        for p in gen_points(E_MINUS2, GEN, 12, rng):
            q = ec_mul(E_MINUS2, rng.randint(-5, 5), GEN)
            require_on_curve(E_MINUS2, ec_add(E_MINUS2, p, q))

    def test_commutative(self):
        p, q = ec_mul(E_MINUS2, 2, GEN), ec_mul(E_MINUS2, 3, GEN)
        assert ec_add(E_MINUS2, p, q) == ec_add(E_MINUS2, q, p)

    def test_associative_random(self):
        rng = random.Random(11)
        cases = [(E_MINUS2, GEN), (E_PLUS1, ECPoint.of(2, 3)), (E_CM, ECPoint.of(0, 0))]
        done = 0
        while done < 100:
            curve, base = cases[done % len(cases)]
            p, q, r = gen_points(curve, base, 3, rng)
            lhs = ec_add(curve, ec_add(curve, p, q), r)
            rhs = ec_add(curve, p, ec_add(curve, q, r))
            assert lhs == rhs
            done += 1

    def test_scalar_distributes(self):
        for m, n in [(2, 3), (4, -1), (5, 7), (-3, -2)]:
            lhs = ec_mul(E_MINUS2, m + n, GEN)
            rhs = ec_add(E_MINUS2, ec_mul(E_MINUS2, m, GEN), ec_mul(E_MINUS2, n, GEN))
            assert lhs == rhs

    def test_two_torsion_doubling(self):
        assert ec_add(E_CM, ECPoint.of(0, 0), ECPoint.of(0, 0)).is_identity

    def test_off_curve_rejected(self):
        with pytest.raises(OffCurveError):
            require_on_curve(E_MINUS2, ECPoint.of(3, 6))

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            EllipticCurveQ(0, 0)
        with pytest.raises(SingularCurveError):
            EllipticCurveQ(-3, 2)


class TestNaiveHeight:
    def test_identity_zero(self):
        assert naive_height(ECPoint.identity()) == 0.0

    def test_integer_point(self):
        assert abs(naive_height(GEN) - math.log(3)) < 1e-12

    def test_rational_point(self):
        p = ec_mul(E_MINUS2, 2, GEN)  # x = 129/100
        assert p.x == Fraction(129, 100)
        assert abs(naive_height(p) - math.log(129)) < 1e-12


class TestEnvelope:
    def test_frozen_constants(self):
        env = duplication_envelope(E_MINUS2)
        assert env.R1 == 144 and env.R2 == 9
        assert abs(env.C - 6.815639990081147) < 1e-9

    def test_one_step_within_envelope(self):
        env = duplication_envelope(E_MINUS2)
        rng = random.Random(17)
        for _ in range(8):
            p = ec_mul(E_MINUS2, rng.randint(1, 5), GEN)
            d = ec_add(E_MINUS2, p, p)
            if d.is_identity:
                continue
            assert abs(naive_height(d) - 4 * naive_height(p)) <= env.C + 1e-9

    def test_gcd_divides_r1(self):
        env = duplication_envelope(E_MINUS2)
        rng = random.Random(23)
        for _ in range(8):
            pt = ec_mul(E_MINUS2, rng.randint(1, 6), GEN)
            x = pt.x
            F, G = el._dup_forms(0, -2, x.numerator, x.denominator)
            g = math.gcd(F, G)
            assert env.R1 % g == 0


class TestCanonicalHeight:
    def test_oracle_agreement(self):
        h = canonical_height(E_MINUS2, GEN, 1e-8)
        assert abs(h - HHAT_ORACLE_10) <= HHAT_ORACLE_TAIL + 1e-8

    def test_regression_pin(self):
        h = canonical_height(E_MINUS2, GEN, 1e-8)
        assert abs(h - HHAT_GEN) <= 2e-8

    def test_quadraticity(self):
        h1 = canonical_height(E_MINUS2, GEN, 1e-8)
        for m in (2, 3, 5):
            hm = canonical_height(E_MINUS2, ec_mul(E_MINUS2, m, GEN), 1e-8)
            assert abs(hm - m * m * h1) <= 2e-8

    def test_parallelogram(self):
        tol = 1e-8
        p = GEN
        q = ec_mul(E_MINUS2, 2, GEN)
        hs = canonical_height(E_MINUS2, ec_add(E_MINUS2, p, q), tol)
        hd = canonical_height(E_MINUS2, ec_add(E_MINUS2, p, ec_neg(q)), tol)
        hp = canonical_height(E_MINUS2, p, tol)
        hq = canonical_height(E_MINUS2, q, tol)
        assert abs(hs + hd - 2 * hp - 2 * hq) <= 4 * tol

    def test_torsion_exact_zero(self):
        for pt in torsion_points(E_PLUS1):
            assert canonical_height(E_PLUS1, pt) == 0.0

    def test_nontorsion_positive(self):
        assert canonical_height(E_MINUS2, GEN) > 1e-3

    def test_estimates_contract(self):
        # e_n = log max(|p_n|, q_n) / 4^n on the exact duplication orbit;
        # n stops at 10 because 2^11 P already has 8 million bits
        env = duplication_envelope(E_MINUS2)
        A, B, p, q = el._integral_x(E_MINUS2, GEN)
        ests = [math.log(max(abs(p), q))]
        for n in range(1, 11):
            F, G = el._dup_forms(A, B, p, q)
            g = math.gcd(env.R1, F % env.R1, G % env.R1)
            p, q = F // g, G // g
            if q < 0:
                p, q = -p, -q
            ests.append(math.log(max(abs(p), q)) / 4**n)
        for n in range(len(ests) - 1):
            assert abs(ests[n + 1] - ests[n]) <= env.C / 4 ** (n + 1)
        assert ests[0] == naive_height(GEN)
        assert abs(ests[-1] - HHAT_ORACLE_10) < 1e-15
        # the tail bound after n = 10 steps, plus HHAT_GEN's own 1e-8
        assert abs(ests[-1] - HHAT_GEN) <= env.C / (3 * 4**10) + 1e-8

    def test_exact_prefix_finish(self):
        # at tol 1e-2 the exact prefix reaches n_target: no ball step runs
        tol = 1e-2
        k, n_target = TestBallContinuation.continuation_start(E_MINUS2, GEN, tol)[4:6]
        assert k == n_target
        value, err = el._hybrid_height(*el._integral_x(E_MINUS2, GEN), tol)
        assert err <= tol
        assert abs(value - HHAT_GEN) <= tol
        assert canonical_height(E_MINUS2, GEN, tol) == value

    def test_model_rescaling_invariance(self):
        # same curve written with rational coefficients: a -> a/u^4, b -> b/u^6
        scaled = EllipticCurveQ(Fraction(0), Fraction(-2, 3**6))
        moved = ECPoint(GEN.x / 9, GEN.y / 27)
        require_on_curve(scaled, moved)
        h = canonical_height(scaled, moved, 1e-8)
        assert abs(h - HHAT_GEN) <= 2e-8

    def test_tolerance_parameter(self):
        loose = canonical_height(E_MINUS2, GEN, 1e-4)
        assert abs(loose - HHAT_GEN) <= 1e-4 + 1e-8
        with pytest.raises(el.EllipticError):
            canonical_height(E_MINUS2, GEN, 0.0)

    def test_orbit_through_x_zero_exact(self):
        # 2P = (0, 1) on this curve, so the duplication numerator vanishes
        curve = EllipticCurveQ(8, 1)
        p = ECPoint.of(2, 5)
        assert ec_mul(curve, 2, p) in (ECPoint.of(0, 1), ECPoint.of(0, -1))
        assert not is_torsion(curve, p)
        h = canonical_height(curve, p, 1e-8)
        assert h > 0.05

    def test_orbit_through_x_zero_float_path(self, monkeypatch):
        # force the x = 0 hit into the interval continuation: the zero
        # suspect must trigger an exact-prefix restart with the same result
        curve = EllipticCurveQ(8, 1)
        p = ECPoint.of(2, 5)
        reference = canonical_height(curve, p, 1e-8)
        monkeypatch.setattr(el, "_PREFIX_BITS", 1)
        forced = canonical_height(curve, p, 1e-8)
        assert abs(forced - reference) <= 2e-8


class TestTorsion:
    def test_is_torsion(self):
        assert is_torsion(E_PLUS1, ECPoint.of(2, 3))
        assert is_torsion(E_PLUS1, ECPoint.of(0, 1))
        assert is_torsion(E_PLUS1, ECPoint.of(-1, 0))
        assert not is_torsion(E_MINUS2, GEN)

    def test_group_z6(self):
        pts = torsion_points(E_PLUS1)
        assert len(pts) == 6
        affine = {(p.x, p.y) for p in pts if not p.is_identity}
        assert affine == {
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
            (Fraction(2), Fraction(3)),
            (Fraction(2), Fraction(-3)),
        }

    def test_trivial_group(self):
        assert torsion_points(E_MINUS2) == [ECPoint.identity()]

    def test_full_two_torsion(self):
        pts = torsion_points(E_CM)
        xs = sorted(p.x for p in pts if not p.is_identity)
        assert xs == [Fraction(-1), Fraction(0), Fraction(1)]
        assert len(pts) == 4

    def test_z3(self):
        pts = torsion_points(EllipticCurveQ(0, 4))
        affine = {(p.x, p.y) for p in pts if not p.is_identity}
        assert affine == {(Fraction(0), Fraction(2)), (Fraction(0), Fraction(-2))}

    def test_rational_model(self):
        # torsion of the rescaled Z/6 curve maps back to rational points
        scaled = EllipticCurveQ(Fraction(0), Fraction(1, 2**6))
        pts = torsion_points(scaled)
        assert len(pts) == 6
        for p in pts:
            if not p.is_identity:
                require_on_curve(scaled, p)


def short_model(a1, a2, a3, a4, a6):
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 in short form, by
    X = x + b2/12 and Y = y + (a1 x + a3)/2, with the long model's (0, 0)
    in the new coordinates."""
    a1, a2, a3, a4, a6 = (Fraction(t) for t in (a1, a2, a3, a4, a6))
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    curve = EllipticCurveQ((24 * b4 - b2 * b2) / 48, (b2**3 - 36 * b2 * b4 + 216 * b6) / 864)
    return curve, ECPoint(b2 / 12, a3 / 2)


class TestLongWeierstrass:
    def test_height_on_reduced_curve(self):
        # y^2 + y = x^3 - x
        curve, origin = short_model(0, 0, 1, -1, 0)
        assert (curve.a, curve.b) == (Fraction(-1), Fraction(1, 4))
        p = require_on_curve(curve, origin)
        h = canonical_height(curve, p, 1e-8)
        assert h > 0.01  # (0,0) generates 37a, infinite order


class TestIntegralModel:
    def test_already_integral(self):
        icurve, u = E_MINUS2.integral_model()
        assert u == 1 and icurve == E_MINUS2

    def test_scaling(self):
        curve = EllipticCurveQ(Fraction(-1, 16), Fraction(1, 32))
        icurve, u = curve.integral_model()
        assert icurve.a == curve.a * u**4
        assert icurve.b == curve.b * u**6
        assert icurve.a.denominator == 1 and icurve.b.denominator == 1

    def test_non_integral(self):
        icurve, u = EllipticCurveQ(Fraction(1, 4), Fraction(1, 8)).integral_model()
        assert u == 2 and (icurve.a, icurve.b) == (4, 8)

    def test_integral_returns_self(self):
        assert E_MINUS2.integral_model()[0] is E_MINUS2


# ---------------------------------------------------------------------------
# exact shortcuts against the general paths they bypass
# ---------------------------------------------------------------------------

# the curve-heights benchmark's verified non-torsion pairs
HEIGHT_PAIRS = [
    (EllipticCurveQ(0, -2), ECPoint.of(3, 5)),
    (EllipticCurveQ(0, 17), ECPoint.of(-2, 3)),
    (EllipticCurveQ(-1, 1), ECPoint.of(1, 1)),
    (EllipticCurveQ(0, 3), ECPoint.of(1, 2)),
    (EllipticCurveQ(-7, 10), ECPoint.of(1, 2)),
]


def loop_is_torsion(curve, point, kmax=12):
    """The 12-step group-law loop (enough over Q, by Mazur): the reference
    the Nagell-Lutz decision in is_torsion is checked against."""
    acc = ECPoint.identity()
    for _ in range(kmax):
        acc = ec_add(curve, acc, point)
        if acc.is_identity:
            return True
    return False


def tate_normal(b, c):
    """y^2 + (1-c)xy - by = x^3 - bx^2 in short form, with (0, 0) moved."""
    return short_model(1 - c, -b, -b, 0, 0)


def kubert_table():
    """(curve, point of the given order) for every cyclic group of Mazur's
    list of order >= 4 and for Z/2 x Z/4, Z/2 x Z/6 (Kubert's Tate normal
    forms; the short models have non-integral coefficients)."""
    t, s = Fraction(2), Fraction(3)
    c9 = t * t * (t - 1)
    den = s * s - 3 * s + 1
    m = (3 * s - 3 * s * s - 1) / (s - 1)
    d = m + s
    c12 = m / (1 - s) * (d - 1)
    c26 = Fraction(-6, 5)
    return [
        (4, tate_normal(t, 0)),
        (5, tate_normal(t, t)),
        (6, tate_normal(t + t * t, t)),
        (7, tate_normal(t**3 - t**2, t**2 - t)),
        (8, tate_normal((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t)),
        (9, tate_normal(c9 * (t * t - t + 1), c9)),
        (10, tate_normal(s**3 * (s - 1) * (2 * s - 1) / den**2,
                         -s * (s - 1) * (2 * s - 1) / den)),
        (12, tate_normal(c12 * d, c12)),
        (4, tate_normal(Fraction(15, 16), 0)),  # Z/2 x Z/4
        (6, tate_normal(c26 + c26 * c26, c26)),  # Z/2 x Z/6
    ]


def rescale(curve, point, u):
    """The same curve and point on the model (a/u^4, b/u^6)."""
    scaled = EllipticCurveQ(curve.a / u**4, curve.b / u**6)
    if point.is_identity:
        return scaled, point
    return scaled, ECPoint(point.x / u**2, point.y / u**3)


class TestNagellLutzPretest:
    def test_torsion_tables_agree_with_loop(self):
        cases = []
        for curve in (EllipticCurveQ(0, 1), EllipticCurveQ(-1, 0), EllipticCurveQ(0, 4),
                      EllipticCurveQ(-43, 166), EllipticCurveQ(4, 0)):
            pts = torsion_points(curve)
            cases += [(curve, ec_mul(curve, k, p)) for p in pts for k in range(1, 13)]
        for order, (curve, gen) in kubert_table():
            assert loop_is_torsion(curve, gen, order)
            assert not loop_is_torsion(curve, gen, order - 1)
            cases += [(curve, ec_mul(curve, k, gen)) for k in range(1, order + 1)]
        # group sizes cover Mazur's orders 1-10, 12 and the Z/2 x Z/2n groups
        assert len(torsion_points(EllipticCurveQ(-43, 166))) == 7
        checked = 0
        for curve, p in cases:
            for u in (1, 2, 3, 6):
                c, q = rescale(curve, p, u)
                assert loop_is_torsion(c, q)
                assert is_torsion(c, q)
                checked += 1
        assert checked > 400

    def test_torsion_points_finds_kubert_groups(self):
        # candidates with y^2 | 4A^3 + 27B^2 find every torsion point, also
        # on the Z/12 curve, whose integral model has A ~ -4e10
        sizes = {4: [4, 8], 5: [5], 6: [6, 12], 7: [7], 8: [8], 9: [9], 10: [10],
                 12: [12]}
        for order, (curve, gen) in kubert_table():
            pts = torsion_points(curve)
            assert len(pts) == sizes[order].pop(0)
            assert all(ec_mul(curve, k, gen) in pts for k in range(order))

    def test_non_torsion_multiples_agree_with_loop(self):
        # the loop copy is run for k <= 12; past that its cost grows like
        # k^4, and kP is torsion exactly when P is, so the loop's verdict
        # on P stands for every k
        for curve, base in HEIGHT_PAIRS:
            assert not loop_is_torsion(curve, base)
            q = ECPoint.identity()
            for k in range(1, 31):
                q = ec_add(curve, q, base)
                if k <= 12:
                    assert not loop_is_torsion(curve, q)
                assert not is_torsion(curve, q)
                for u in (2, 3, 6):
                    assert not is_torsion(*rescale(curve, q, u))

    def test_integral_points_agree_with_loop(self):
        # integral points on small curves: many pass Nagell-Lutz at P
        # itself and are settled by the doubling walk
        walked = torsion = 0
        for A in range(-6, 7):
            for B in range(-6, 7):
                if 4 * A**3 + 27 * B**2 == 0:
                    continue
                curve = EllipticCurveQ(A, B)
                disc = abs(4 * A**3 + 27 * B**2)
                for x in range(-3, 40):
                    y2 = x**3 + A * x + B
                    y = math.isqrt(y2) if y2 >= 0 else -1
                    if y * y != y2:
                        continue
                    p = ECPoint.of(x, y)
                    want = loop_is_torsion(curve, p)
                    assert is_torsion(curve, p) == want
                    assert is_torsion(*rescale(curve, p, 3)) == want
                    walked += not want and (y == 0 or disc % (y * y) == 0)
                    torsion += want
        assert walked > 50 and torsion > 20

    def test_fast_path_uses_no_group_law(self, monkeypatch):
        # torsion is decided by the doubling walk alone, both ways
        points = [(curve, ec_mul(curve, k, base))
                  for curve, base in HEIGHT_PAIRS for k in range(2, 17)]
        torsion = [(curve, ec_mul(curve, k, gen))
                   for _, (curve, gen) in kubert_table() for k in (1, 2, 3)]
        torsion += [(c, p) for c in (EllipticCurveQ(0, 1), EllipticCurveQ(-43, 166))
                    for p in torsion_points(c)]

        def forbidden(*args):
            raise AssertionError("is_torsion ran the group law")

        monkeypatch.setattr(el, "ec_add", forbidden)
        for curve, q in points:
            assert not is_torsion(curve, q)
        for curve, q in torsion:
            assert is_torsion(curve, q)


class TestPrefixGcd:
    @staticmethod
    def orbit_gcds(curve, point, max_bits=1 << 14):
        """(R1, F, G) along the exact duplication orbit of x(point)."""
        A, B, p, q = el._integral_x(curve, point)
        R1 = el._envelope_cached(A, B).R1
        while max(abs(p).bit_length(), q.bit_length()) <= max_bits:
            F, G = el._dup_forms(A, B, p, q)
            if G == 0:
                return
            yield R1, F, G
            g = math.gcd(F, G)
            p, q = F // g, G // g
            if q < 0:
                p, q = -p, -q

    def test_mod_r1_gcd_equals_full_gcd(self):
        cases = list(HEIGHT_PAIRS) + [
            # 2P = (0, 1): F vanishes, gcd(F, G) = |G|
            (EllipticCurveQ(8, 1), ECPoint.of(2, 5)),
            # y = 1 on y^2 = x^3 - x + 1: one step from the 2-torsion locus
            (EllipticCurveQ(-1, 1), ECPoint.of(0, 1)),
            # non-integral model: the orbit runs on the integral one
            rescale(EllipticCurveQ(0, -2), ECPoint.of(3, 5), 6),
        ]
        steps = cancelling = 0
        for curve, point in cases:
            for R1, F, G in self.orbit_gcds(curve, point):
                full = math.gcd(abs(F), abs(G))
                assert math.gcd(R1, F % R1, G % R1) == full
                steps += 1
                cancelling += full > 1
        assert steps > 50 and cancelling > 10

    def test_dup_forms_match_the_expanded_formula(self):
        def expanded(A, B, p, q):
            # the formula before the shared products
            p2, q2 = p * p, q * q
            F = p2 * p2 - 2 * A * p2 * q2 - 8 * B * p * q * q2 + A * A * q2 * q2
            G = 4 * q * (p * p2 + A * p * q2 + B * q * q2)
            return F, G

        rng = random.Random(9)
        for _ in range(120):
            A, B = rng.randint(-50, 50), rng.randint(-50, 50)
            # bit lengths log-uniform from 4 to 2^17
            p, q = (rng.choice((-1, 1)) * rng.getrandbits(int(2 ** rng.uniform(2, 17)))
                    for _ in range(2))
            assert el._dup_forms(A, B, p, q) == expanded(A, B, p, q)
        steps = 0
        for curve, point in HEIGHT_PAIRS:
            A, B, p, q = el._integral_x(curve, point)
            while max(abs(p).bit_length(), q.bit_length()) <= 1 << 17:
                F, G = el._dup_forms(A, B, p, q)
                assert (F, G) == expanded(A, B, p, q)
                g = math.gcd(F, G)
                p, q = F // g, G // g
                steps += 1
        assert steps >= 8 * len(HEIGHT_PAIRS)

    def test_envelope_carries_per_curve_data(self):
        env = duplication_envelope(E_MINUS2)
        assert dict(env.R1_factors) == {2: 4, 3: 2}
        assert len(env.witnesses) == 3
        for w in env.witnesses:
            assert w > 1 << 61 and env.R1 % w != 0


def sympy_clear_bezout(f, g):
    """Bezout data from sympy's gcdex over QQ: the reference for the
    extended Euclid in _clear_bezout (coefficient lists, constant first)."""
    y = sympy.Symbol("y")
    s, t, h = sympy.Poly(f[::-1], y, domain="QQ").gcdex(sympy.Poly(g[::-1], y, domain="QQ"))
    assert h.degree() == 0
    s, t = (sympy.Poly(p.as_expr() / h.LC(), y, domain="QQ") for p in (s, t))
    L = int(sympy.ilcm(*[sympy.Rational(x).q for x in s.all_coeffs() + t.all_coeffs()]))
    return [int(x * L) for x in s.all_coeffs()[::-1]], [int(x * L) for x in t.all_coeffs()[::-1]], L


class TestIntegerArithmetic:
    def test_clear_bezout_matches_gcdex(self):
        rng = random.Random(8)
        pairs = [(0, -2), (0, 17), (-1, 1), (0, 3), (-7, 10), (-1, 0), (3, 0)]
        pairs += [(rng.randint(-400, 400), rng.randint(-400, 400)) for _ in range(40)]
        for A, B in pairs:
            if 4 * A**3 + 27 * B**2 == 0:
                continue
            for f, g in (
                ([A * A, -8 * B, -2 * A, 0, 1], [4 * B, 4 * A, 0, 4]),
                ([1, 0, -2 * A, -8 * B, A * A], [0, 4, 0, 4 * A, 4 * B]),
            ):
                assert el._clear_bezout(f, g) == sympy_clear_bezout(f, g), (A, B)

    def test_clear_bezout_rejects_common_factor(self):
        with pytest.raises(SingularCurveError):
            el._clear_bezout([-1, 0, 1], [1, 1])

    def test_factor_matches_factorint(self):
        rng = random.Random(9)
        p40, q40 = sympy.nextprime(1 << 39), sympy.prevprime(1 << 40)
        ns = [1, 2, 144, 10404, 5312, 65537, 65521**2, (1 << 61) - 1, p40 * q40,
              2**5 * 3 * p40 * q40, p40**2, 3317044064679887385961981 * 7]
        ns += [rng.randint(1, 1 << rng.randint(2, 64)) for _ in range(60)]
        for n in ns:
            want = {int(p): e for p, e in sorted(sympy.factorint(n).items())}
            got = el._factor(n)
            assert got == want and list(got) == sorted(got), n

    def test_witness_primes_match_nextprime(self):
        chain, w = [], 1 << 61
        for _ in range(6):
            w = int(sympy.nextprime(w))
            chain.append(w)
        assert el._witness_primes(144) == chain[:3]
        assert el._witness_primes(chain[0] * chain[2] * 6, count=4) == [chain[1]] + chain[3:6]
        # strong pseudoprimes to many of the bases, and Carmichael numbers
        for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461, 561, 41041):
            assert el._is_prime(n) == sympy.isprime(n) == False  # noqa: E712


def test_integer_cubic_roots_match_divisor_enumeration():
    # a nonzero integer root of x^3 + A x + c divides c, and fixes
    # A = -(x^3 + c) / x; c = 0 leaves x = 0 and x^2 = -A
    want = {}
    for c in range(1, 2001):
        for d in (d for d in range(1, c + 1) if c % d == 0):
            for x, cc in ((s * d, t * c) for s in (1, -1) for t in (1, -1)):
                A = -(x**3 + cc) // x
                if abs(A) <= 50:
                    want.setdefault((A, cc), set()).add(x)
    for A in range(-50, 51):
        s = math.isqrt(-A) if A < 0 else 0
        want[(A, 0)] = {0, s, -s} if s * s == -A else {0}
        for c in range(-2000, 2001):
            assert el._integer_cubic_roots(A, c) == sorted(want.get((A, c), ()))


def reference_continue(A, B, p0, q0, start, n_target, env, dps):
    """The mpmath-iv continuation the integer balls replaced, as it stood:
    the reference they are checked against."""
    from mpmath import iv

    def iv_from_int(n):
        if n == 0:
            return iv.mpf(0)
        bits, keep = abs(n).bit_length(), iv.prec - 8
        if bits <= keep:
            out = iv.mpf(abs(n))
        else:
            m = abs(n) >> (bits - keep)
            out = iv.mpf([m, m + 1]) * iv.mpf(2) ** (bits - keep)
        return -out if n < 0 else out

    steps = n_target - start
    trackers = [el._ResidueTracker(ell, c, steps, p0, q0) for ell, c in env.R1_factors]
    witnesses = [el._WitnessTracker(w, p0, q0) for w in env.witnesses]
    old_prec = iv.prec
    try:
        iv.dps = dps
        Mi = iv_from_int(max(abs(p0), abs(q0)))
        H = iv.log(Mi)
        ph, qh = iv_from_int(p0) / Mi, iv_from_int(q0) / Mi
        for _ in range(steps):
            Fi = ph**4 - 2 * A * ph**2 * qh**2 - 8 * B * ph * qh**3 + A * A * qh**4
            Gi = 4 * qh * (ph**3 + A * ph * qh**2 + B * qh**3)
            wf = [w.forms(A, B) for w in witnesses]
            if 0 in Fi and all(f == 0 for f, _ in wf):
                raise el._SuspectedExactZero()
            g, vals = 1, []
            for t in trackers:
                vF, vG = t.valuations(A, B)
                if vF is None and vG is None:
                    raise el._SuspectedExactZero()
                e = min(vG if vF is None else (vF if vG is None else min(vF, vG)), t.c)
                vals.append(e)
                g *= t.ell**e
            for t, e in zip(trackers, vals):
                t.advance(g, e)
            for w in witnesses:
                w.advance(g)
            fa, ga = abs(Fi), abs(Gi)
            mi = iv.mpf([max(fa.a, ga.a), max(fa.b, ga.b)])
            if not mi.a > 0:
                return None
            H = 4 * H + iv.log(mi) - iv.log(iv.mpf(g))
            ph, qh = Fi / mi, Gi / mi
        return H / iv.mpf(4) ** n_target
    finally:
        iv.prec = old_prec


class TestBallContinuation:
    TOLS = (1e-9, 1e-10, 1e-12, 1e-14)
    CASES = [(curve, ec_mul(curve, k, base))
             for curve, base in HEIGHT_PAIRS for k in range(1, 17)] + [
        # 2P = (0, 1): the orbit passes through x = 0
        (EllipticCurveQ(8, 1), ECPoint.of(2, 5)),
        rescale(EllipticCurveQ(-7, 10), ECPoint.of(1, 2), 6),
    ]

    @staticmethod
    def continuation_start(curve, point, tol):
        """(A, B, p, q, k, n_target, env): _hybrid_height's state where the
        exact prefix hands over to the continuation."""
        A, B, p, q = el._integral_x(curve, point)
        env = el._envelope_cached(A, B)
        n_target = max(1, math.ceil(math.log(env.C / (3 * tol / 32)) / math.log(4)))
        k = 0
        while k < n_target and max(abs(p).bit_length(), q.bit_length()) <= el._PREFIX_BITS:
            F, G = el._dup_forms(A, B, p, q)
            g = math.gcd(F, G)
            p, q = F // g, G // g
            if q < 0:
                p, q = -p, -q
            k += 1
        return A, B, p, q, k, n_target, env

    def test_boxes_agree_with_interval_reference(self):
        compared = 0
        for i, (curve, point) in enumerate(self.CASES):
            tol = self.TOLS[i % 4]
            A, B, p, q, k, n, env = self.continuation_start(curve, point, tol)
            x = el._integral_x(curve, point)[2:]
            # from the hand-over point, and from the point itself, where
            # the small early steps carry the gcd cancellations
            for start in ([(p, q, k)] if k < n else []) + [(*x, 0)]:
                try:
                    want = reference_continue(A, B, *start, n, env, 60)
                except el._SuspectedExactZero:
                    with pytest.raises(el._SuspectedExactZero):
                        el._interval_continue(A, B, *start, n, env, 60)
                    continue
                got = el._interval_continue(A, B, *start, n, env, 60)
                assert got.a <= want.b and want.a <= got.b
                assert float(got.delta) <= tol / 4 and float(want.delta) <= tol / 4
                compared += 1
        assert compared > 100

    def test_heights_agree_with_interval_reference(self, monkeypatch):
        # every tolerance on a sample of the cases, through the full
        # prefix, dps ladder and _SuspectedExactZero retry
        for curve, point in self.CASES[3::7]:
            args = el._integral_x(curve, point)
            for tol in self.TOLS:
                got, got_err = el._hybrid_height(*args, tol)
                with monkeypatch.context() as m:
                    m.setattr(el, "_interval_continue", reference_continue)
                    want, want_err = el._hybrid_height(*args, tol)
                assert abs(got - want) <= min(got_err, want_err)

    def test_balls_hold_every_point(self):
        # F, G and the 2^e shift at exact points of the input balls, for
        # radii from 0 to the size of the centres
        rng = random.Random(5)
        w = 40
        for A, B in ((0, -2), (-7, 10), (8, 1)):
            for _ in range(150):
                balls = [(rng.randint(-2**w, 2**w), rng.choice((0, 3, rng.randint(0, 2**w))))
                         for _ in range(2)]
                F, G = el._ball_forms(A, B, *balls, w)
                e = rng.randint(-5, 45)
                for t in (-1, 1, Fraction(rng.randint(-99, 99), 100)):
                    x, y = (Fraction(c + t * r, 2**w) for c, r in balls)
                    for (c, r), v in ((F, x**4 - 2 * A * x**2 * y**2 - 8 * B * x * y**3
                                       + A * A * y**4),
                                      (G, 4 * y * (x**3 + A * x * y**2 + B * y**3))):
                        assert abs(v * 2**w - c) <= r
                        c2, r2 = el._ball_shift((c, r), e)
                        assert abs(v * 2**w / Fraction(2)**e - c2) <= r2

    def test_low_precision_boxes_hold_exact_heights(self):
        # at a few dozen bits the radii grow to the size of the centres;
        # every box returned must still hold the exact 4^-n h_n
        from mpmath import iv

        held = 0
        for curve, point in HEIGHT_PAIRS:
            A, B, p, q = el._integral_x(curve, point)
            env = el._envelope_cached(A, B)
            pn, qn = p, q
            for n in range(1, 7):
                F, G = el._dup_forms(A, B, pn, qn)
                g = math.gcd(F, G) * (1 if G > 0 else -1)
                pn, qn = F // g, G // g
                old_prec, iv.dps = iv.prec, 40
                exact = iv.log(iv.mpf(max(abs(pn), qn))) / 4**n
                iv.prec = old_prec
                for dps in (2, 3, 4, 6, 9):
                    box = el._interval_continue(A, B, p, q, 0, n, env, dps)
                    if box is not None:
                        assert box.a <= exact.b and exact.a <= box.b
                        held += 1
        assert held > 100

    def test_one_log_per_prime(self, monkeypatch):
        from mpmath import iv

        calls = []
        real = iv.log
        monkeypatch.setattr(el.iv, "log", lambda x: calls.append(x) or real(x))
        for curve, point in HEIGHT_PAIRS:
            A, B, p, q = el._integral_x(curve, point)
            env = el._envelope_cached(A, B)
            for n in (3, 12, 30):
                calls.clear()
                assert el._interval_continue(A, B, p, q, 0, n, env, 120) is not None
                assert len(calls) <= 2 + len(env.R1_factors)


class TestBudgetErrorContext:
    # 2P = (0, 1) on y^2 = x^3 + 8x + 1: the continuation meets F = 0
    CURVE, POINT = EllipticCurveQ(8, 1), ECPoint.of(2, 5)

    def test_prefix_budget(self, monkeypatch):
        monkeypatch.setattr(el, "_PREFIX_BITS", 1)
        monkeypatch.setattr(el, "_PREFIX_BITS_MAX", 1)
        with pytest.raises(CanonicalHeightBudgetError, match="exact prefix") as info:
            canonical_height(self.CURVE, self.POINT, 1e-8)
        err = info.value
        assert (err.A, err.B, err.p0_bits, err.q0_bits) == (8, 1, 2, 1)
        assert (err.tol, err.dps, err.prefix_bits) == (1e-8, 60, 1)
        assert err.n_target == TestBallContinuation.continuation_start(
            self.CURVE, self.POINT, 1e-8)[5]
        assert "prefix_bits=1" in str(err)

    def test_precision_budget(self, monkeypatch):
        monkeypatch.setattr(el, "_interval_continue", lambda *args: None)
        point = ec_mul(E_MINUS2, 3, GEN)
        with pytest.raises(CanonicalHeightBudgetError, match="tolerance") as info:
            canonical_height(E_MINUS2, point, 1e-9)
        err = info.value
        A, B, p, q = el._integral_x(E_MINUS2, point)
        assert (err.A, err.B, err.p0_bits, err.q0_bits) == (0, -2, p.bit_length(), q.bit_length())
        assert (err.tol, err.dps, err.prefix_bits) == (1e-9, 480, el._PREFIX_BITS)
        assert err.n_target == TestBallContinuation.continuation_start(E_MINUS2, point, 1e-9)[5]
