"""Tests for the (*) condition, N-functions, and the four transfer results.

The torus scenarios run on the family 2^(1/n) whose heights (log 2)/n are
known in closed form, so every expected N below is a hand-checked integer:
N = least N >= 1 with m^N (log 2)/n + delta > M.
"""

import math
import random
from fractions import Fraction

import pytest

from smallpoints.algebraic import TorusElement, radical, root_of_unity
from smallpoints.dynamics import (
    DEFAULT_CAP,
    BallMembership,
    DynamicsError,
    HeightedSystem,
    InconclusiveComparisonError,
    NValue,
    SearchBudgetError,
    StarParams,
    check_prop2,
    check_prop3,
    check_prop4,
    classify_small_sequence,
    derive_prop1_params,
    empirical_height_comparison,
    is_preperiodic,
    n_ball_membership,
    n_from_components,
    n_function,
    system_height,
    verify_star,
)
from smallpoints.elliptic import ECPoint, EllipticCurveQ

LOG2 = math.log(2.0)

SQUARING = HeightedSystem("torus", 2)
STAR_HALF = StarParams(r=1, M=0.5, c=1.9)

E_MINUS2 = EllipticCurveQ(Fraction(0), Fraction(-2))
GEN = ECPoint.of(Fraction(3), Fraction(5))
DOUBLING = HeightedSystem("elliptic", 2, curve=E_MINUS2)


def nth_root_of_2(n):
    return TorusElement(radical(Fraction(2), n), 1)


class TestParams:
    def test_star_validation(self):
        StarParams(1, 0.5, 1.1)
        with pytest.raises(DynamicsError):
            StarParams(0, 0.5, 1.1)
        with pytest.raises(DynamicsError):
            StarParams(1, 0.0, 1.1)
        with pytest.raises(DynamicsError):
            StarParams(1, 0.5, 1.0)

    def test_system_validation(self):
        with pytest.raises(DynamicsError):
            HeightedSystem("modular", 2)
        with pytest.raises(DynamicsError):
            HeightedSystem("torus", 1)
        with pytest.raises(DynamicsError):
            HeightedSystem("elliptic", 2)
        with pytest.raises(DynamicsError):
            HeightedSystem("torus", 2, curve=E_MINUS2)
        with pytest.raises(DynamicsError):
            HeightedSystem("torus", 2, shift=-0.5)

    def test_growth_multiplier(self):
        # one step multiplies h by m on the torus, m^2 on a curve
        assert HeightedSystem("torus", 3).growth == 3
        assert HeightedSystem("elliptic", 3, curve=E_MINUS2).growth == 9


class TestVerifyStar:
    def test_torus_analytic_boundary(self):
        assert verify_star(SQUARING, StarParams(1, 0.5, 1.9)).holds
        # c must stay strictly below the r-step growth m^r
        assert not verify_star(SQUARING, StarParams(1, 0.5, 2.0)).analytic_ok
        assert verify_star(SQUARING, StarParams(2, 0.5, 3.9)).holds

    def test_shift_tradeoff(self):
        # with h + delta the condition is (m^r - c) M >= (m^r - 1) delta
        shifted = HeightedSystem("torus", 2, 1.0)
        assert verify_star(shifted, StarParams(1, 2.0, 1.5)).holds  # 1 >= 1
        assert not verify_star(shifted, StarParams(1, 1.9, 1.5)).analytic_ok

    def test_sample_witnesses(self):
        z = TorusElement.from_rational(Fraction(2))
        report = verify_star(SQUARING, StarParams(1, 0.5, 3.0), [z])
        assert not report.analytic_ok
        assert report.violations and report.violations[0]["sample"] == str(z)
        assert not report.holds

    def test_low_samples_are_vacuous(self):
        z = nth_root_of_2(100)  # height 0.00693 < M
        report = verify_star(SQUARING, STAR_HALF, [z])
        assert report.vacuous == 1 and report.checked == 0

    def test_large_r_is_exact(self):
        # G^r = 2^600 is past float range; c is compared with it exactly
        shifted = HeightedSystem("torus", 2, 2.0)
        z = TorusElement.from_rational(Fraction(16))
        report = verify_star(shifted, StarParams(600, 3.0, 1.5), [z])
        assert report.holds and report.checked == 1
        assert verify_star(SQUARING, StarParams(600, 0.5, 2.0**599), [z]).holds
        assert not verify_star(SQUARING, StarParams(600, 0.5, 2.0**600)).analytic_ok

    def test_elliptic(self):
        report = verify_star(DOUBLING, StarParams(1, 0.5, 3.9), [GEN])
        assert report.holds and report.checked == 1
        assert not verify_star(DOUBLING, StarParams(1, 0.5, 4.0)).analytic_ok


class TestNFunction:
    def test_staircase_values(self):
        assert n_function(SQUARING, TorusElement.from_rational(Fraction(2)),
                          STAR_HALF) == NValue.finite(1)
        assert n_function(SQUARING, nth_root_of_2(8), STAR_HALF) == NValue.finite(3)
        assert n_function(SQUARING, nth_root_of_2(200), STAR_HALF) == NValue.finite(8)

    def test_staircase_matches_closed_form(self):
        for n in range(1, 40):
            expected = 1
            while 2**expected * LOG2 / n <= 0.5:
                expected += 1
            got = n_function(SQUARING, nth_root_of_2(n), STAR_HALF)
            assert got == NValue.finite(expected), n

    def test_root_of_unity_is_preperiodic(self):
        z = TorusElement(root_of_unity(5), 1)
        assert n_function(SQUARING, z, STAR_HALF) == NValue.preperiodic()
        assert n_function(SQUARING, TorusElement.from_rational(Fraction(-1)),
                          STAR_HALF) == NValue.preperiodic()

    def test_exponent_scales_exactly(self):
        # (2^(1/8))^-3 has height 3 log2 / 8 = 0.2599...; 2^1 * that > 0.5
        z = TorusElement(radical(Fraction(2), 8), -3)
        assert n_function(SQUARING, z, STAR_HALF) == NValue.finite(1)

    def test_elliptic_values(self):
        assert n_function(DOUBLING, GEN, STAR_HALF) == NValue.finite(1)
        # hhat(P) = 1.3496...; 4^N hhat crosses 100 at N = 4
        assert n_function(DOUBLING, GEN, StarParams(1, 100.0, 1.9)) == NValue.finite(4)
        assert n_function(DOUBLING, ECPoint.identity(),
                          STAR_HALF) == NValue.preperiodic()

    def test_elliptic_torsion_preperiodic(self):
        curve = EllipticCurveQ(Fraction(0), Fraction(1))
        system = HeightedSystem("elliptic", 2, curve=curve)
        T = ECPoint.of(Fraction(2), Fraction(3))  # order 6
        assert n_function(system, T, STAR_HALF) == NValue.preperiodic()

    def test_cap(self):
        got = n_function(SQUARING, nth_root_of_2(200), STAR_HALF, cap=5)
        assert got == NValue.cap_exceeded()
        with pytest.raises(DynamicsError):
            n_function(SQUARING, nth_root_of_2(2), STAR_HALF, cap=0)

    def test_threshold_tie_raises(self):
        # M placed within ulp of 2 log 2 cannot be decided honestly
        tie = StarParams(1, 2.0 * LOG2, 1.9)
        with pytest.raises(InconclusiveComparisonError):
            n_function(SQUARING, TorusElement.from_rational(Fraction(2)), tie)

    def test_wrong_point_type(self):
        with pytest.raises(DynamicsError):
            n_function(SQUARING, GEN, STAR_HALF)
        with pytest.raises(DynamicsError):
            n_function(DOUBLING, nth_root_of_2(2), STAR_HALF)


class TestComponents:
    def test_mixed_growth(self):
        # 256*0.1 + 16*0.2 = 28.8 is the first value past 10
        got = n_from_components((0.1, 0.0), (0.2, 0.0), 2, 0.0, 10.0, 64, False)
        assert got == NValue.finite(4)

    def test_preperiodic_flag_wins(self):
        got = n_from_components((0.0, 0.0), (0.0, 0.0), 2, 0.0, 1.0, 64, True)
        assert got == NValue.preperiodic()

    def test_overflow_guard(self):
        # 10^309 (1e-9 +- 1e-12) straddles M = 1e300: no N can be certified
        with pytest.raises(InconclusiveComparisonError):
            n_from_components((0.0, 0.0), (1e-9, 1e-12), 10, 0.0, 1e300, 2000, False)
        got = n_from_components((0.0, 0.0), (1e-9, 1e-12), 10, 0.0, 2e300, 2000, False)
        assert got == NValue.finite(310)

    def test_far_threshold_torus(self):
        # h = (log 3)/200 and 2^N h > 1e200 first at N = 672 (2^671 h is
        # 0.54e200); a sign test past float range said 249
        z = TorusElement(radical(Fraction(3, 2), 200))
        got = n_function(SQUARING, z, StarParams(1, 1e200, 1.9), cap=1000)
        assert got == NValue.finite(672)

    def test_far_threshold_elliptic(self):
        # hhat(3, 5) = 1.3496 and 4^N hhat > 1e200 first at N = 332 (4^331
        # hhat is 0.26e200)
        got = n_function(DOUBLING, GEN, StarParams(1, 1e200, 1.9), cap=1000)
        assert got == NValue.finite(332)

    def test_exact_threshold_past_float_range(self):
        # 2^700 * 1 equals M = 2^700 exactly, so N is the next step
        got = n_from_components((0.0, 0.0), (1.0, 0.0), 2, 0.0, 2.0**700, 1000, False)
        assert got == NValue.finite(701)

    def test_band_straddling_threshold_raises(self):
        with pytest.raises(InconclusiveComparisonError):
            n_from_components((0.0, 0.0), (1.0, 0.1), 2, 0.0, 2.0, 64, False)
        # the same far past float range: 2^700 (1 +- 1e-3) straddles 2^700
        with pytest.raises(InconclusiveComparisonError):
            n_from_components((0.0, 0.0), (1.0, 1e-3), 2, 0.0, 2.0**700, 1000, False)

    def test_infinite_threshold_is_never_exceeded(self):
        got = n_from_components((1.0, 0.0), (1.0, 0.0), 2, 1.0, math.inf, 64, False)
        assert got == NValue.cap_exceeded()

    @staticmethod
    def fraction_loop(quadratic, linear, m, shift, M, cap):
        """The exact-rational loop that the integer steps replace."""
        hq, eq, hl, el, shift = map(Fraction, (*quadratic, *linear, shift))
        for n in range(1, cap + 1):
            mn = m**n
            lo = mn * (mn * hq + hl) + shift
            err = mn * (mn * eq + el)
            if lo - err > M:
                return NValue.finite(n)
            if not lo + err <= M:
                return "inconclusive"
        return NValue.cap_exceeded()

    def test_integer_steps_match_the_fraction_loop(self):
        # benchmark-like inputs: torus h = log p / n with n in [2, 200],
        # curve h = 1.35 k^2, with thresholds near and far
        rng = random.Random(10)
        for i in range(600):
            if i % 2:
                h = math.log(rng.choice((2, 3, 5, 7, 11))) / rng.randint(2, 200)
                quadratic, linear = (0.0, 0.0), (h, h * 1e-10)
            else:
                h = 1.35 * rng.randint(1, 16) ** 2
                quadratic, linear = (h, h * 1e-9), (0.0, 0.0)
            shift = rng.choice((0.0, 0.5, -0.25))
            M = rng.choice((0.5, 8.0, 10.0, 1e6, 1e200, 2.0**700))
            cap = rng.choice((64, 1000))
            args = (quadratic, linear, 2, shift, M, cap)
            want = self.fraction_loop(*args)
            if want == "inconclusive":
                with pytest.raises(InconclusiveComparisonError):
                    n_from_components(*args, False)
            else:
                assert n_from_components(*args, False) == want, args


class TestPreperiodic:
    def test_torus(self):
        assert is_preperiodic(SQUARING, TorusElement(root_of_unity(7), 3))
        assert is_preperiodic(SQUARING, TorusElement(radical(Fraction(2), 3), 0))
        assert not is_preperiodic(SQUARING, nth_root_of_2(3))

    def test_elliptic(self):
        curve = EllipticCurveQ(Fraction(0), Fraction(1))
        system = HeightedSystem("elliptic", 2, curve=curve)
        assert is_preperiodic(system, ECPoint.of(Fraction(-1), Fraction(0)))
        assert not is_preperiodic(DOUBLING, GEN)

    def test_shifted_height_accessor(self):
        shifted = HeightedSystem("torus", 2, 1.5)
        assert system_height(shifted, TorusElement.from_rational(Fraction(2))) == (
            pytest.approx(LOG2 + 1.5, abs=1e-12)
        )


class TestSmallSequence:
    def test_nth_roots_are_small(self):
        seq = [nth_root_of_2(n) for n in range(1, 41)]
        report = classify_small_sequence(SQUARING, seq, STAR_HALF)
        assert report.is_small_sequence
        assert report.heights_to_zero
        assert report.preperiodic_count == 0
        assert report.n_values[0] == NValue.finite(1)

    def test_constant_sequence_is_not(self):
        seq = [TorusElement.from_rational(Fraction(2))] * 20
        report = classify_small_sequence(SQUARING, seq, STAR_HALF)
        assert not report.is_small_sequence
        assert not report.heights_to_zero

    def test_all_roots_of_unity_trivially_small(self):
        seq = [TorusElement(root_of_unity(k), 1) for k in range(1, 13)]
        report = classify_small_sequence(SQUARING, seq, STAR_HALF)
        assert report.is_small_sequence
        assert report.heights_to_zero
        assert report.preperiodic_count == 12

    def test_empty_rejected(self):
        with pytest.raises(DynamicsError):
            classify_small_sequence(SQUARING, [], STAR_HALF)


class TestProp1:
    def test_comparison_constants(self):
        a = HeightedSystem("torus", 2, 1.0)
        b = HeightedSystem("torus", 2, 2.0)
        samples = [TorusElement.from_rational(Fraction(2)),
                   TorusElement(root_of_unity(3), 1), nth_root_of_2(4)]
        cmpres = empirical_height_comparison(a, b, samples)
        # ratio (h+2)/(h+1) peaks at the height-zero sample
        assert cmpres.e == pytest.approx(2.0, abs=1e-9)
        assert cmpres.e_prime < 1.0

    def test_comparison_needs_positive_heights(self):
        z = TorusElement(root_of_unity(3), 1)
        with pytest.raises(DynamicsError):
            empirical_height_comparison(SQUARING, SQUARING, [z])

    def test_derived_params(self):
        # smallest m with c^m > 2 e e', then r' = m r, M' = e M, c' = 2
        got = derive_prop1_params(StarParams(1, 2.0, 1.5), 2.0, 2.0)
        assert got == StarParams(6, 4.0, 2.0)
        got = derive_prop1_params(StarParams(1, 1.0, 2.0), 1.0, 1.0)
        assert got == StarParams(2, 1.0, 2.0)
        got = derive_prop1_params(StarParams(3, 1.0, 5.0), 1.0, 1.0)
        assert got == StarParams(3, 1.0, 2.0)

    def test_derived_params_verify(self):
        shifted = HeightedSystem("torus", 2, 2.0)
        derived = derive_prop1_params(StarParams(1, 2.0, 1.5), 2.0, 2.0)
        assert verify_star(shifted, derived).holds

    def test_validation_and_budget(self):
        with pytest.raises(DynamicsError):
            derive_prop1_params(StarParams(1, 1.0, 2.0), 0.5, 1.0)
        with pytest.raises(SearchBudgetError):
            derive_prop1_params(StarParams(1, 1.0, 1.0 + 1e-9), 10.0, 10.0)


class TestProp2:
    def test_threshold_offset(self):
        samples = [nth_root_of_2(n) for n in (1, 2, 3, 4, 6, 8, 12)]
        report = check_prop2(SQUARING, STAR_HALF, 1.0, 1.0, samples)
        # 1.9 * 0.5 < 1 but 1.9^2 * 0.5 > 1, so p = 2
        assert report.p == 2 and report.offset == 2
        assert report.holds
        for row in report.rows:
            assert int(row["n"]) <= int(row["n_prime"]) <= int(row["n"]) + 1

    def test_validation(self):
        with pytest.raises(DynamicsError):
            check_prop2(SQUARING, STAR_HALF, 0.0, 1.0, [])
        with pytest.raises(DynamicsError):
            check_prop2(SQUARING, STAR_HALF, 1.0, 0.5, [])
        with pytest.raises(SearchBudgetError):
            check_prop2(SQUARING, StarParams(1, 0.5, 1.0 + 1e-9), 1e6, 1.0, [])


class TestProp3:
    SHARED = StarParams(1, 2.0, 1.5)

    def setup_method(self):
        self.f = HeightedSystem("torus", 2, 1.0)
        self.g = HeightedSystem("torus", 3, 1.0)
        self.samples = [nth_root_of_2(n) for n in (1, 2, 3, 4, 6, 8, 12)]

    def test_squaring_vs_cubing(self):
        # d = 2 bounds one squaring step; ceil(log 2 / log 1.5) = 2
        report = check_prop3(self.f, self.g, self.SHARED, 2.0, self.samples)
        assert report.d_valid and report.factor == 2
        assert report.holds
        for row in report.rows:
            assert int(row["n_g"]) <= 2 * int(row["n_f"])

    def test_reverse_direction(self):
        # bounding g's step needs d = 3; ceil(log 3 / log 1.5) = 3
        report = check_prop3(self.g, self.f, self.SHARED, 3.0, self.samples)
        assert report.d_valid and report.factor == 3
        assert report.holds

    def test_d_needs_shift(self):
        f0 = HeightedSystem("torus", 2, 0.0)
        g0 = HeightedSystem("torus", 3, 0.0)
        report = check_prop3(f0, g0, STAR_HALF, 2.0, [])
        assert not report.d_valid and not report.holds

    def test_d_below_growth_invalid(self):
        report = check_prop3(self.f, self.g, self.SHARED, 1.5, [])
        assert not report.d_valid

    def test_preperiodic_agrees(self):
        z = TorusElement(root_of_unity(9), 1)
        report = check_prop3(self.f, self.g, self.SHARED, 2.0, [z])
        assert report.holds
        assert report.rows[0]["n_f"] == "preperiodic"
        assert report.rows[0]["n_g"] == "preperiodic"

    def test_validation(self):
        with pytest.raises(DynamicsError):
            check_prop3(self.f, DOUBLING, self.SHARED, 2.0, [])
        with pytest.raises(DynamicsError):
            check_prop3(self.f, HeightedSystem("torus", 3, 0.5), self.SHARED, 2.0, [])
        with pytest.raises(DynamicsError):
            check_prop3(self.f, self.g, self.SHARED, 1.0, [])


class TestProp4:
    STAR = StarParams(1, 2.0, 1.5)

    def setup_method(self):
        self.sys = HeightedSystem("torus", 2, 1.0)
        self.samples = [nth_root_of_2(n) for n in (1, 2, 3, 4, 6, 8, 12)]

    def test_inclusion_gives_equality(self):
        # M' just above alpha M: no sample crossing lands in (M, M']
        report = check_prop4("include", self.sys, self.sys, self.STAR,
                             2.00001, self.samples)
        assert report.holds and report.m_prime_ok
        assert report.equalities == len(self.samples)

    def test_diagonal(self):
        report = check_prop4("diagonal", self.sys, self.sys, self.STAR,
                             4.1, self.samples)
        assert report.alpha == pytest.approx(2.0, rel=1e-5)
        assert report.holds
        for row in report.rows:
            assert int(row["n_psi"]) >= int(row["n"])

    def test_power(self):
        report = check_prop4("power", self.sys, self.sys, self.STAR,
                             6.1, self.samples, k=3)
        assert report.alpha == pytest.approx(3.0, rel=1e-5)
        assert report.holds

    def test_m_prime_too_small(self):
        report = check_prop4("include", self.sys, self.sys, self.STAR,
                             1.5, self.samples)
        assert not report.m_prime_ok and not report.holds

    def test_preperiodic_forward(self):
        z = TorusElement(root_of_unity(5), 2)
        report = check_prop4("include", self.sys, self.sys, self.STAR, 2.1, [z])
        assert report.holds and report.rows[0]["n_psi"] == "preperiodic"

    def test_validation(self):
        unshifted = HeightedSystem("torus", 2, 0.0)
        with pytest.raises(DynamicsError):
            check_prop4("include", unshifted, unshifted, self.STAR, 2.1, [])
        with pytest.raises(DynamicsError):
            check_prop4("power", DOUBLING, DOUBLING, self.STAR, 2.1, [], k=2)
        with pytest.raises(DynamicsError):
            check_prop4("power", self.sys, self.sys, self.STAR, 2.1, [], k=0)
        with pytest.raises(DynamicsError):
            check_prop4("twist", self.sys, self.sys, self.STAR, 2.1, [])
        with pytest.raises(DynamicsError):
            check_prop4("include", self.sys, HeightedSystem("torus", 3, 1.0),
                        self.STAR, 2.1, [])


class TestBallMembership:
    def test_deep_point_is_member(self):
        got = n_ball_membership(SQUARING, nth_root_of_2(200), 0.2, STAR_HALF)
        assert got.member and got.n_value == NValue.finite(8)

    def test_shallow_point_is_not(self):
        got = n_ball_membership(SQUARING, TorusElement.from_rational(Fraction(2)),
                                0.5, STAR_HALF)
        assert not got.member

    def test_preperiodic_always_member(self):
        z = TorusElement(root_of_unity(5), 1)
        got = n_ball_membership(SQUARING, z, 1e-6, STAR_HALF)
        assert got.member and got.n_value == NValue.preperiodic()

    def test_undecidable_cap_raises(self):
        with pytest.raises(SearchBudgetError):
            n_ball_membership(SQUARING, nth_root_of_2(200), 1e-3,
                              StarParams(1, 1e9, 1.9), cap=30)

    def test_eps_validation(self):
        with pytest.raises(DynamicsError):
            n_ball_membership(SQUARING, nth_root_of_2(2), 0.0, STAR_HALF)


class TestProductDomain:
    """Mixed growth on E x G_m: quadratic on the curve factor, linear on
    the torus. hhat(3,5) = 1.34958 +- 1e-3, so every threshold comparison
    below is decisive by a wide margin."""

    A = None  # set in setup_class to keep imports local to the product tests

    @classmethod
    def setup_class(cls):
        from smallpoints.semiabelian import AmbientVariety, SemiabelianPoint

        cls.A = AmbientVariety(E_MINUS2, 1)
        cls.point = SemiabelianPoint
        cls.sys = HeightedSystem("product", 2, curve=E_MINUS2)
        cls.z = SemiabelianPoint(GEN, (TorusElement.from_rational(Fraction(2)),))

    def test_validation(self):
        with pytest.raises(DynamicsError):
            HeightedSystem("product", 2)
        assert self.sys.growth == 4 and self.sys.growth_low == 2

    def test_height_is_component_sum(self):
        got = system_height(self.sys, self.z)
        assert got == pytest.approx(1.349576835679619 + LOG2, abs=1e-8)

    def test_n_staircase(self):
        # h after N steps is 4^N hhat + 2^N log 2
        assert n_function(self.sys, self.z, StarParams(1, 3.0, 1.9)) == NValue.finite(1)
        assert n_function(self.sys, self.z, StarParams(1, 30.0, 1.9)) == NValue.finite(3)

    def test_n_single_factor_points(self):
        torus_only = self.point(ECPoint.identity(),
                                (TorusElement.from_rational(Fraction(2)),))
        ec_only = self.point(GEN, (TorusElement.one(),))
        star = StarParams(1, 3.0, 1.9)
        assert n_function(self.sys, torus_only, star) == NValue.finite(3)
        assert n_function(self.sys, ec_only, star) == NValue.finite(1)
        assert n_function(self.sys, ec_only, StarParams(1, 30.0, 1.9)) == NValue.finite(3)

    def test_n_matches_direct_orbit_heights(self):
        # the N from exponent scaling agrees with heights of the actual
        # orbit points (2^j P, t^(2^j))
        from smallpoints.elliptic import ec_mul
        from smallpoints.semiabelian import product_height
        from smallpoints.algebraic import torus_power

        M = 30.0
        n = n_function(self.sys, self.z, StarParams(1, M, 1.9))
        assert n.is_finite
        for j in range(1, n.n + 1):
            w = self.point(ec_mul(E_MINUS2, 2**j, GEN),
                           (torus_power(self.z.torus[0], 2**j),))
            h = product_height(self.A, w, 1e-8)
            assert (h > M) == (j == n.n)

    def test_preperiodic_product(self):
        z = self.point(ECPoint.identity(), (TorusElement(root_of_unity(5), 1),))
        assert is_preperiodic(self.sys, z)
        assert n_function(self.sys, z, STAR_HALF) == NValue.preperiodic()
        z2 = self.point(ECPoint.identity(), (TorusElement.from_rational(Fraction(2)),))
        assert not is_preperiodic(self.sys, z2)

    def test_verify_star_uses_torus_growth(self):
        # the guaranteed one-step factor on a product is m (pure torus
        # points), so the analytic bound must use G = 2, not 4
        shifted = HeightedSystem("product", 2, shift=1.0, curve=E_MINUS2)
        report = verify_star(shifted, StarParams(1, 2.0, 1.5),
                             [self.z, self.point(ECPoint.identity(),
                              (TorusElement.from_rational(Fraction(2)),))])
        assert report.analytic_ok and report.holds
        assert report.checked == 1 and report.vacuous == 1
        assert report.delta == 1.0 and report.as_dict()["delta"] == 1.0
        # c = 3 exceeds every power of G = 2 reachable at r = 1
        bad = verify_star(shifted, StarParams(1, 2.0, 3.0), [])
        assert not bad.analytic_ok

    def test_wrong_point_type(self):
        with pytest.raises(DynamicsError):
            n_function(self.sys, TorusElement.from_rational(Fraction(2)), STAR_HALF)


class TestEmbeddedStar:
    def test_system_star_is_default(self):
        sys = HeightedSystem("torus", 2, star=STAR_HALF)
        z = nth_root_of_2(8)
        assert n_function(sys, z) == n_function(SQUARING, z, STAR_HALF)
        assert verify_star(sys).holds
        got = n_ball_membership(sys, nth_root_of_2(200), 0.2)
        assert got.member

    def test_explicit_star_wins(self):
        sys = HeightedSystem("torus", 2, star=STAR_HALF)
        assert n_function(sys, nth_root_of_2(8), StarParams(1, 2.0, 1.9)) == \
            NValue.finite(5)

    def test_missing_star_raises(self):
        with pytest.raises(DynamicsError):
            n_function(SQUARING, nth_root_of_2(8))
        with pytest.raises(DynamicsError):
            verify_star(SQUARING)


class TestConjugateInvariance:
    def test_n_same_for_all_conjugates(self):
        # N only depends on the minimal polynomial: all eight roots of
        # x^8 - 2 share the height (log 2)/8
        from smallpoints.algebraic import AlgebraicNumber

        coeffs = [-2, 0, 0, 0, 0, 0, 0, 0, 1]
        for k in range(8):
            root = AlgebraicNumber.from_minpoly(coeffs, index=k)
            n = n_function(SQUARING, TorusElement(root, 1), STAR_HALF)
            assert n == NValue.finite(3)

    def test_torus_n_matches_direct_orbit_heights(self):
        from smallpoints.algebraic import torus_height, torus_power

        z = nth_root_of_2(8)
        n = n_function(SQUARING, z, STAR_HALF)
        assert n == NValue.finite(3)
        for j in range(1, n.n + 1):
            h = torus_height(torus_power(z, 2**j), 1e-12)
            assert (h > STAR_HALF.M) == (j == n.n)
