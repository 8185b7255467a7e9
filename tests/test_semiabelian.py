"""Tests for product heights, B_eps membership, Gamma enumeration, relation
loci, and the bounded theorem explorer on E x G_m^n."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import smallpoints.elliptic as el
import smallpoints.semiabelian as sa
from smallpoints.algebraic import (
    IntPolynomial,
    TorusElement,
    radical,
    root_of_unity,
    torus_height,
)
from smallpoints.dynamics import (
    HeightedSystem,
    StarParams,
    is_preperiodic,
    n_from_components,
    n_function,
)
from smallpoints.elliptic import (
    ECPoint,
    EllipticCurveQ,
    canonical_height,
    ec_add,
    ec_mul,
    is_torsion,
)
from smallpoints.semiabelian import (
    AmbientVariety,
    BallVerdict,
    CurveRelation,
    ExploreConfig,
    SearchSpaceError,
    SemiabelianError,
    SemiabelianPoint,
    SubgroupGamma,
    curve_membership,
    explore_theorem,
    gamma_enumerate,
    gamma_eps_certificate,
    in_B_eps,
    product_height,
)

E_MINUS2 = EllipticCurveQ(Fraction(0), Fraction(-2))
E_PLUS1 = EllipticCurveQ(Fraction(0), Fraction(1))  # torsion Z/6
AMBIENT = AmbientVariety(E_MINUS2, 1)

GEN_EC = ECPoint.of(Fraction(3), Fraction(5))


def pt(ec, *torus):
    return SemiabelianPoint(ec, tuple(torus))


def t_rat(r):
    return TorusElement.from_rational(Fraction(r))


def t_rad(r, m):
    return TorusElement(radical(Fraction(r), m), 1)


def t_rou(n, k=1):
    return TorusElement(root_of_unity(n, k), 1)


class TestTypes:
    def test_ambient_validation(self):
        with pytest.raises(SemiabelianError):
            AmbientVariety(E_MINUS2, -1)
        ident = AmbientVariety(E_MINUS2, 3).identity()
        assert ident.ec.is_identity and len(ident.torus) == 3

    def test_on_variety(self):
        with pytest.raises(SemiabelianError):
            pt(ECPoint.identity(), t_rat(2), t_rat(3)).on_variety(AMBIENT)
        with pytest.raises(Exception):
            pt(ECPoint.of(Fraction(1), Fraction(1)), t_rat(2)).on_variety(AMBIENT)
        pt(GEN_EC, t_rat(2)).on_variety(AMBIENT)

    def test_subgroup_needs_rational_torus(self):
        with pytest.raises(SemiabelianError):
            SubgroupGamma.of([pt(ECPoint.identity(), t_rad(2, 3))])
        with pytest.raises(SemiabelianError):
            SubgroupGamma.of([], torus_rank=None)
        g = SubgroupGamma.of([pt(GEN_EC, t_rat(2))])
        assert g.torus_rank == 1


class TestProductHeight:
    def test_identity_is_zero(self):
        assert product_height(AMBIENT, AMBIENT.identity()) == 0.0

    def test_torus_only(self):
        z = pt(ECPoint.identity(), t_rat(2))
        assert product_height(AMBIENT, z) == pytest.approx(math.log(2), abs=1e-12)

    def test_sum_of_components(self):
        z = pt(GEN_EC, t_rat(2))
        expected = canonical_height(E_MINUS2, GEN_EC, 1e-10) + math.log(2)
        assert product_height(AMBIENT, z, tol=1e-9) == pytest.approx(
            expected, abs=2e-9
        )

    def test_torus_doubling_scales_exactly(self):
        ambient = AmbientVariety(E_MINUS2, 1)
        base = t_rad(2, 7)
        one = product_height(ambient, pt(ECPoint.identity(), base))
        two = product_height(
            ambient, pt(ECPoint.identity(), TorusElement(base.base, 2))
        )
        assert two == pytest.approx(2 * one, abs=1e-12)

    def test_elliptic_quadraticity(self):
        tol = 1e-9
        z1 = pt(GEN_EC, t_rat(1))
        z2 = pt(ec_mul(E_MINUS2, 2, GEN_EC), t_rat(1))
        h1 = product_height(AMBIENT, z1, tol)
        h2 = product_height(AMBIENT, z2, tol)
        assert abs(h2 - 4 * h1) <= 5 * tol

    def test_zero_iff_torsion_times_rou(self):
        ambient6 = AmbientVariety(E_PLUS1, 1)
        torsion = ECPoint.of(Fraction(2), Fraction(3))
        assert product_height(ambient6, pt(torsion, t_rou(5))) == 0.0
        assert product_height(ambient6, pt(torsion, t_rad(2, 9))) > 1e-3
        assert product_height(AMBIENT, pt(GEN_EC, t_rou(5))) > 1e-3

    def test_validation(self):
        with pytest.raises(SemiabelianError):
            product_height(AMBIENT, AMBIENT.identity(), tol=0.0)


class TestInBeps:
    def test_contract_examples(self):
        z7 = pt(ECPoint.identity(), t_rad(2, 7))  # h = (log 2)/7 = 0.0990
        assert in_B_eps(AMBIENT, z7, 0.1) is BallVerdict.IN
        z2 = pt(ECPoint.identity(), t_rat(2))
        assert in_B_eps(AMBIENT, z2, 0.1) is BallVerdict.OUT

    def test_exact_zero_in_for_eps_zero(self):
        ambient6 = AmbientVariety(E_PLUS1, 1)
        z = pt(ECPoint.of(Fraction(0), Fraction(1)), t_rou(7, 3))
        assert in_B_eps(ambient6, z, 0.0) is BallVerdict.IN

    def test_boundary_band(self):
        z7 = pt(ECPoint.identity(), t_rad(2, 7))
        assert in_B_eps(AMBIENT, z7, math.log(2) / 7) is BallVerdict.BOUNDARY

    def test_monotone_in_eps(self):
        zs = [pt(ECPoint.identity(), t_rad(2, m)) for m in (3, 7, 20)]
        for z in zs:
            if in_B_eps(AMBIENT, z, 0.1) is BallVerdict.IN:
                assert in_B_eps(AMBIENT, z, 0.25) is BallVerdict.IN

    def test_validation(self):
        with pytest.raises(SemiabelianError):
            in_B_eps(AMBIENT, AMBIENT.identity(), -0.1)


ULP = 2.0**-50


def reference_components(curve, z, tol):
    """dynamics' product branch as it stood before the kernel replaced it
    and semiabelian's copy: (hq, eq, hl, el, zero), errors with |h| ulp."""
    each = tol / (1 + len(z.torus))
    hq = eq = hl = el = 0.0
    zero = True
    if not (z.ec.is_identity or is_torsion(curve, z.ec)):
        hq = canonical_height(curve, z.ec, each)
        eq = each + hq * ULP
        zero = False
    for t in z.torus:
        if not t.is_unit_circle():
            v = torus_height(t, each)
            hl += v
            el += each + v * ULP
            zero = False
    return hq, eq, hl, el, zero


class TestHeightKernel:
    # y^2 = x^3 - 2x: (0, 0) is 2-torsion, (-1, 1) has infinite order
    CURVE = EllipticCurveQ(-2, 0)
    TOL = 1e-9
    STAR = StarParams(r=1, M=20.0, c=1.9)

    @classmethod
    def points(cls):
        rng = random.Random(41)
        base, two = ECPoint.of(-1, 1), ECPoint.of(0, 0)
        ecs = [ec_add(cls.CURVE, ec_mul(cls.CURVE, k, base), t)
               for k in range(-2, 3) for t in (ECPoint.identity(), two)]
        torus = [t_rat(2), t_rat(Fraction(3, 5)), t_rat(1), t_rou(3), t_rou(5, 2),
                 t_rad(2, 3), TorusElement(radical(Fraction(3), 4), -2)]
        # torsion x roots of unity (ecs[4:6] are O and (0, 0)), then a mix
        out = [pt(ec, *ts) for ec in ecs[4:6]
               for ts in ((t_rou(3),), (t_rou(5, 2), t_rou(7, 2)), (t_rat(1),))]
        for _ in range(30):
            n = rng.choice((1, 2))
            out.append(pt(rng.choice(ecs), *rng.sample(torus, n)))
        return out

    def test_product_heights_and_verdicts_unchanged(self):
        zeros = 0
        for z in self.points():
            A = AmbientVariety(self.CURVE, len(z.torus))
            hq, eq, hl, el, zero = reference_components(self.CURVE, z, self.TOL)
            zeros += zero
            h = hq + hl
            err = eq + el - h * ULP  # semiabelian's copy had no ulp term
            got = product_height(A, z, self.TOL)
            assert abs(got - h) <= 4 * ULP * max(1.0, h)
            assert (got == 0.0) == zero
            for eps in (0.0, 0.05, 0.3, 1.0, 2.5):
                want = (BallVerdict.IN if zero or h + err <= eps else
                        BallVerdict.OUT if h - err > eps else BallVerdict.BOUNDARY)
                assert in_B_eps(A, z, eps, self.TOL) is want
            system = HeightedSystem("product", 2, curve=self.CURVE, tol=self.TOL)
            assert is_preperiodic(system, z) == zero
            want_n = n_from_components((hq, eq), (hl, el), 2, 0.0, self.STAR.M, 64, zero)
            assert n_function(system, z, self.STAR) == want_n
        assert zeros >= 6

    def test_kernel_decides_torsion_once(self, monkeypatch):
        # counted wherever it runs: in the kernel or in canonical_height
        calls = []
        real = el.is_torsion
        counted = lambda c, p: calls.append(p) or real(c, p)  # noqa: E731
        monkeypatch.setattr(sa, "is_torsion", counted)
        monkeypatch.setattr(el, "is_torsion", counted)
        z = pt(ECPoint.of(-1, 1), t_rat(2))
        system = HeightedSystem("product", 2, curve=self.CURVE)
        n_function(system, z, self.STAR)
        assert len(calls) == 1

    def test_preperiodic_decided_without_heights(self, monkeypatch):
        # the exact predicate gives the height route's verdict on every
        # domain and never computes a height
        points = self.points()
        want = [(sa.height_parts(self.CURVE, z.ec, z.torus, self.TOL)[4],
                 sa.height_parts(self.CURVE, z.ec, (), self.TOL)[4],
                 [sa.height_parts(None, None, (t,), self.TOL)[4] for t in z.torus])
                for z in points]

        def forbidden(*args):
            raise AssertionError("a height was computed")

        monkeypatch.setattr(sa, "nontorsion_height", forbidden)
        monkeypatch.setattr(sa, "torus_height", forbidden)
        product = HeightedSystem("product", 2, curve=self.CURVE, tol=self.TOL)
        curve = HeightedSystem("elliptic", 2, curve=self.CURVE, tol=self.TOL)
        torus = HeightedSystem("torus", 2, tol=self.TOL)
        for z, (zero, ec_zero, t_zeros) in zip(points, want):
            assert sa.is_torsion_point(self.CURVE, z.ec, z.torus) == zero
            assert is_preperiodic(product, z) == zero
            assert is_preperiodic(curve, z.ec) == ec_zero
            assert [is_preperiodic(torus, t) for t in z.torus] == t_zeros
        assert sum(zero for zero, _, _ in want) >= 6

    def test_ball_error_covers_ulp(self):
        # eps = h + tol sits inside the band once the |h| ulp term counts
        # (a bound of tol alone, as product heights had, says In)
        A = AmbientVariety(self.CURVE, 0)
        z = pt(ec_mul(self.CURVE, 3, ECPoint.of(-1, 1)))
        h, err, _, _, zero = sa.height_parts(self.CURVE, z.ec, z.torus, self.TOL)
        assert not zero and err == self.TOL + h * ULP
        assert in_B_eps(A, z, h + self.TOL, self.TOL) is BallVerdict.BOUNDARY


class TestGammaEnumerate:
    def test_counts(self):
        g1 = SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2))])
        assert len(list(gamma_enumerate(g1, 1, AMBIENT))) == 3
        assert len(list(gamma_enumerate(g1, 3, AMBIENT))) == 7
        g2 = SubgroupGamma.of(
            [pt(ECPoint.identity(), t_rat(2)), pt(GEN_EC, t_rat(1))]
        )
        out = list(gamma_enumerate(g2, 1, AMBIENT))
        assert len(out) == 9
        assert len({c for c, _ in out}) == 9

    def test_trivial_subgroup(self):
        g0 = SubgroupGamma.of([], torus_rank=1)
        out = list(gamma_enumerate(g0, 5, AMBIENT))
        assert len(out) == 1
        coeffs, point = out[0]
        assert coeffs == () and point.ec.is_identity and point.torus[0].is_one

    def test_lexicographic_order_and_values(self):
        g1 = SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2))])
        out = list(gamma_enumerate(g1, 2, AMBIENT))
        assert [c for c, _ in out] == [(-2,), (-1,), (0,), (1,), (2,)]
        values = [p.torus[0].rational_value() for _, p in out]
        assert values == [Fraction(1, 4), Fraction(1, 2), 1, 2, 4]

    def test_elliptic_generator(self):
        g1 = SubgroupGamma.of([pt(GEN_EC, t_rat(1))])
        out = dict(gamma_enumerate(g1, 1, AMBIENT))
        assert out[(1,)].ec == GEN_EC
        assert out[(-1,)].ec == ECPoint.of(Fraction(3), Fraction(-5))

    def test_validation(self):
        g1 = SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2))])
        with pytest.raises(SemiabelianError):
            list(gamma_enumerate(g1, -1, AMBIENT))
        with pytest.raises(SemiabelianError):
            list(gamma_enumerate(g1, 1, AmbientVariety(E_MINUS2, 2)))


class TestCertificate:
    GAMMA_PT = pt(GEN_EC, t_rat(2))

    def test_x_equals_gamma(self):
        assert gamma_eps_certificate(
            AMBIENT, self.GAMMA_PT, self.GAMMA_PT, 0.0
        ) is BallVerdict.IN

    def test_small_offset(self):
        x = pt(GEN_EC, _mul_torus(t_rat(2), t_rad(2, 7)))
        got = gamma_eps_certificate(AMBIENT, x, self.GAMMA_PT, 0.1)
        assert got is BallVerdict.IN

    def test_large_offset(self):
        x = pt(GEN_EC, t_rat(4))
        got = gamma_eps_certificate(AMBIENT, x, self.GAMMA_PT, 0.1)
        assert got is BallVerdict.OUT

    def test_gamma0_is_torsion_times_rou(self):
        x = pt(GEN_EC, _mul_torus(t_rat(2), t_rou(3)))
        assert gamma_eps_certificate(AMBIENT, x, self.GAMMA_PT, 0.0) is BallVerdict.IN

    def test_unsupported_division(self):
        x = pt(ECPoint.identity(), t_rad(2, 3))
        other = pt(ECPoint.identity(), t_rad(3, 3))
        got = gamma_eps_certificate(AMBIENT, x, other, 1.0)
        assert got is BallVerdict.UNSUPPORTED


def _mul_torus(a, b):
    from smallpoints.semiabelian import _torus_mul

    out = _torus_mul(a, b)
    assert out is not None
    return out


class TestCurveRelation:
    def test_validation(self):
        with pytest.raises(SemiabelianError):
            CurveRelation.of([], 1)
        with pytest.raises(SemiabelianError):
            CurveRelation.of([{(0, 0, 1): Fraction(0)}], 1)
        with pytest.raises(SemiabelianError):
            CurveRelation.of([{(0, 0): Fraction(1)}], 1)
        with pytest.raises(SemiabelianError):
            CurveRelation.of([{(-1, 0, 0): Fraction(1)}], 1)

    def test_canonical_equality(self):
        a = CurveRelation.of([{(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-2)}], 1)
        b = CurveRelation.of([{(0, 0, 0): Fraction(-2), (0, 0, 1): Fraction(1)}], 1)
        assert a == b

    def test_uses_ec_coordinates(self):
        t_only = CurveRelation.of([{(0, 0, 2): Fraction(1)}], 1)
        assert not t_only.uses_ec_coordinates()
        with_x = CurveRelation.of([{(1, 0, 0): Fraction(1)}], 1)
        assert with_x.uses_ec_coordinates()


class TestMembership:
    T_EQ_2 = CurveRelation.of([{(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-2)}], 1)

    def test_rational_substitution(self):
        t_eq_1 = CurveRelation.of([{(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-1)}], 1)
        got = curve_membership(t_eq_1, pt(ECPoint.identity(), TorusElement.one()))
        assert got.kind == "ExactYes"
        # x = t + 1 with ((2,3), t=1) on y^2 = x^3 + 1
        line = CurveRelation.of(
            [{(1, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1), (0, 0, 0): Fraction(-1)}],
            1,
        )
        z = pt(ECPoint.of(Fraction(2), Fraction(3)), TorusElement.one())
        assert curve_membership(line, z).kind == "ExactYes"
        assert curve_membership(self.T_EQ_2, pt(ECPoint.identity(), t_rat(2))).kind == (
            "ExactYes"
        )

    def test_exponent_zero_is_one(self):
        # alpha^0 = 1 for an algebraic alpha: both relations hold there
        one = pt(ECPoint.identity(), TorusElement(root_of_unity(3), 0))
        for terms in ({(0, 0, 1): 1, (0, 0, 0): -1}, {(0, 0, 1): 1, (0, 0, 2): 1, (0, 0, 0): -2}):
            rel = CurveRelation.of([{e: Fraction(c) for e, c in terms.items()}], 1)
            assert curve_membership(rel, one).kind == "ExactYes"

    def test_divisibility_oracle(self):
        zsq = pt(ECPoint.identity(), t_rad(2, 2))
        assert curve_membership(self.T_EQ_2, zsq).kind == "ExactNo"
        square = CurveRelation.of([{(0, 0, 2): Fraction(1), (0, 0, 0): Fraction(-2)}], 1)
        assert curve_membership(square, zsq).kind == "ExactYes"

    def test_negative_exponents(self):
        # t + 1/t vanishes at the fourth root of unity
        pal = CurveRelation.of([{(0, 0, 1): Fraction(1), (0, 0, -1): Fraction(1)}], 1)
        assert curve_membership(pal, pt(ECPoint.identity(), t_rou(4))).kind == (
            "ExactYes"
        )
        assert curve_membership(pal, pt(ECPoint.identity(), t_rou(3))).kind == (
            "ExactNo"
        )

    def test_identity_fails_affine_equations(self):
        x_zero = CurveRelation.of([{(1, 0, 0): Fraction(1)}], 1)
        got = curve_membership(x_zero, pt(ECPoint.identity(), t_rat(5)))
        assert got.kind == "ExactNo"

    def test_symbolic_exponent_slot(self):
        # t = alpha^-1 for alpha = 2^(1/3): t^3 - 1/2 = 0 holds
        inv = pt(ECPoint.identity(), TorusElement(radical(Fraction(2), 3), -1))
        cube = CurveRelation.of(
            [{(0, 0, 3): Fraction(1), (0, 0, 0): Fraction(-1, 2)}], 1
        )
        assert curve_membership(cube, inv).kind == "ExactYes"

    def test_multiple_equations(self):
        zsq = pt(ECPoint.identity(), t_rad(2, 2))
        both = CurveRelation.of(
            [
                {(0, 0, 2): Fraction(1), (0, 0, 0): Fraction(-2)},
                {(0, 0, 4): Fraction(1), (0, 0, 0): Fraction(-4)},
            ],
            1,
        )
        assert curve_membership(both, zsq).kind == "ExactYes"
        mixed = CurveRelation.of(
            [
                {(0, 0, 2): Fraction(1), (0, 0, 0): Fraction(-2)},
                {(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-2)},
            ],
            1,
        )
        assert curve_membership(mixed, zsq).kind == "ExactNo"

    def test_numeric_fallback(self):
        rel = CurveRelation.of(
            [{(0, 0, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(-1)}], 2
        )
        same = pt(ECPoint.identity(), t_rad(2, 3), t_rad(2, 3))
        got = curve_membership(rel, same)
        assert got.kind == "NumericYes" and got.residual < 1e-9
        different = pt(ECPoint.identity(), t_rad(2, 3), t_rad(3, 3))
        got = curve_membership(rel, different)
        assert got.kind == "NumericNo" and got.residual > 0.1

    def test_rank_mismatch(self):
        with pytest.raises(SemiabelianError):
            curve_membership(self.T_EQ_2, pt(ECPoint.identity()))


class TestExplorer:
    def scenario(self):
        gen = pt(ECPoint.identity(), t_rat(2))
        gamma = SubgroupGamma.of([gen])
        relation = CurveRelation.of(
            [{(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-2)}], 1
        )
        config = ExploreConfig(gen_bound=3, rou_order=12,
                               radicals=((Fraction(2), 8),))
        return gamma, relation, config

    def test_t_equals_2_has_one_hit(self):
        gamma, relation, config = self.scenario()
        report = explore_theorem(AMBIENT, gamma, relation, 0.0, config)
        assert report["hit_count"] == 1
        hit = report["hits"][0]
        assert hit["gamma_coefficients"] == [1]
        assert hit["point"] == "(O; (2)^1)"
        assert hit["membership"] == "ExactYes" and hit["exact"]
        assert hit["certificate"] == "In"
        assert report["cosets"] == [[0]]
        assert "non-effective" in report["disclaimer"]
        assert "integrality" in report["integrality_note"]

    def test_rerun_is_identical(self):
        gamma, relation, config = self.scenario()
        a = explore_theorem(AMBIENT, gamma, relation, 0.0, config)
        b = explore_theorem(AMBIENT, gamma, relation, 0.0, config)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_radical_hit_at_positive_eps(self):
        gamma, _, config = self.scenario()
        seventh = CurveRelation.of(
            [{(0, 0, 7): Fraction(1), (0, 0, 0): Fraction(-2)}], 1
        )
        report = explore_theorem(AMBIENT, gamma, seventh, 0.2, config)
        assert report["hit_count"] == 1
        assert report["hits"][0]["gamma_coefficients"] == [0]
        assert "root#" in report["hits"][0]["point"]

    def test_torsion_hits_group_into_one_coset(self):
        ambient = AmbientVariety(E_PLUS1, 0)
        relation = CurveRelation.of([{(1, 0): Fraction(1)}], 0)
        trivial = SubgroupGamma.of([], torus_rank=0)
        report = explore_theorem(ambient, trivial, relation, 0.0,
                                 ExploreConfig(gen_bound=0, rou_order=1))
        assert report["hit_count"] == 2
        assert {h["point"] for h in report["hits"]} == {"((0, 1))", "((0, -1))"}
        assert report["cosets"] == [[0, 1]]

    def test_no_hits_when_locus_avoids_identity(self):
        trivial = SubgroupGamma.of([], torus_rank=1)
        relation = CurveRelation.of(
            [{(0, 0, 1): Fraction(1), (0, 0, 0): Fraction(-3)}], 1
        )
        report = explore_theorem(AMBIENT, trivial, relation, 0.0,
                                 ExploreConfig(gen_bound=0, rou_order=1))
        assert report["hit_count"] == 0 and report["hits"] == []

    def test_boundary_candidates_are_counted(self):
        gamma, relation, config = self.scenario()
        report = explore_theorem(AMBIENT, gamma, relation, math.log(2) / 7, config)
        assert report["boundary_skipped"] >= 1

    def test_oversized_search_rejected(self):
        gamma, relation, _ = self.scenario()
        tight = ExploreConfig(gen_bound=3, rou_order=12,
                              radicals=((Fraction(2), 8),), max_search=50)
        with pytest.raises(SearchSpaceError) as info:
            explore_theorem(AMBIENT, gamma, relation, 0.0, tight)
        assert info.value.estimate > 50

    def test_validation(self):
        gamma, relation, config = self.scenario()
        with pytest.raises(SemiabelianError):
            explore_theorem(AMBIENT, gamma, relation, -1.0, config)
        with pytest.raises(SemiabelianError):
            explore_theorem(AmbientVariety(E_MINUS2, 2), gamma, relation, 0.0, config)


def reference_explore(A, G, X, eps, config):
    """explore_theorem without its shortcuts: every candidate gamma + z is
    built, tested by curve_membership and certified by gamma_eps_certificate,
    and every pair of hits is compared.

    Hits x_i = gamma_i + z_i share a coset of torsion x roots of unity exactly
    when P_i - P_j is torsion and |x_i| = |x_j| in every slot: each catalog
    value is a root of unity times a positive real, so x_i / x_j is a root of
    unity once its modulus is 1. The conjugates of a catalog value z of degree
    d share its modulus, so |z|^d = |norm(z)|; with L the lcm of the catalog
    degrees, |x|^L = |r|^L |norm(z)|^(L / d) for x = r z."""
    torsion = el.torsion_points(A.curve)
    torus_values = sa._catalog_torus_values(config)
    n, g = A.torus_rank, len(G.generators)
    estimate = len(torsion) * len(torus_values) ** n * (2 * config.gen_bound + 1) ** g
    smalls = []
    boundary_skipped = 0
    for T in torsion:
        for combo in itertools.product(torus_values, repeat=n):
            z = SemiabelianPoint(T, combo)
            verdict = in_B_eps(A, z, eps, config.tol)
            if verdict is BallVerdict.IN:
                smalls.append(z)
            elif verdict is BallVerdict.BOUNDARY:
                boundary_skipped += 1
    level = math.lcm(*(t.base.degree for t in torus_values))
    hits, parts = [], []
    for coeffs, gamma in gamma_enumerate(G, config.gen_bound, A):
        for z in smalls:
            x = sa._point_add(A, gamma, z)
            if x is None:
                continue
            verdict = curve_membership(X, x, eps=min(config.tol, 1e-12))
            if verdict.is_yes:
                cert = gamma_eps_certificate(A, x, gamma, eps, config.tol)
                hits.append({"gamma_coefficients": list(coeffs), "small_point": str(z),
                             "point": str(x), "membership": str(verdict),
                             "exact": verdict.is_exact, "certificate": cert.value})
                parts.append((x.ec, tuple(abs(g_t.rational_value()) ** level
                                          * abs(norm(z_t.base)) ** (level // z_t.base.degree)
                                          for g_t, z_t in zip(gamma.torus, z.torus))))
    parent = list(range(len(hits)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    torsion_diff = {}
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            (p, mi), (q, mj) = parts[i], parts[j]
            if (p, q) not in torsion_diff:
                torsion_diff[p, q] = is_torsion(A.curve, ec_add(A.curve, p, el.ec_neg(q)))
            if torsion_diff[p, q] and mi == mj:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(hits)):
        groups.setdefault(find(i), []).append(i)
    return {"disclaimer": sa.DISCLAIMER, "integrality_note": sa.INTEGRALITY_NOTE,
            "eps": eps, "search_size": estimate, "catalog_size": len(torus_values),
            "candidates_in_ball": len(smalls), "boundary_skipped": boundary_skipped,
            "hit_count": len(hits), "hits": hits,
            "cosets": sorted(sorted(v) for v in groups.values())}


def norm(alpha):
    """The product of alpha's conjugates, (-1)^d c_0 / c_d."""
    cs = alpha.minpoly.coeffs
    return Fraction((-1) ** alpha.degree * cs[0], cs[-1])


def relation(rank, terms):
    """CurveRelation from {(a, b, k_1..k_n): coeff} dicts, one per equation."""
    return CurveRelation.of([{k: Fraction(v) for k, v in eq.items()} for eq in terms], rank)


def random_relation(rng, rank, use_xy):
    eq = {}
    for _ in range(rng.randint(1, 4)):
        a, b = (rng.randint(0, 1), rng.randint(0, 1)) if use_xy else (0, 0)
        exps = (a, b) + tuple(rng.randint(-2, 3) for _ in range(rank))
        eq[exps] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4))
    return CurveRelation.of([eq], rank)


class TestMembershipByOrbit:
    RANK2 = AmbientVariety(E_MINUS2, 2)
    TORSION = AmbientVariety(E_PLUS1, 1)

    @classmethod
    def cases(cls):
        g2 = SubgroupGamma.of([pt(GEN_EC, t_rat(2))])
        unit = SubgroupGamma.of([pt(GEN_EC, t_rat(1)), pt(ECPoint.identity(), t_rat(3))])
        small = ExploreConfig(gen_bound=2, rou_order=12, radicals=((Fraction(2), 4),))
        out = [
            # x and y terms: y = 5t/2 and x t^2 = 12 hit at gamma = (3, 5)
            (AMBIENT, g2, relation(1, [{(0, 1, 0): 1, (0, 0, 1): Fraction(-5, 2)}]),
             0.3, small),
            (AMBIENT, g2, relation(1, [{(1, 0, 2): 1, (0, 0, 0): -12}]), 0.3, small),
            (AMBIENT, g2, relation(1, [{(1, 0, 0): 1, (0, 0, 0): -3},
                                       {(0, 1, -1): 1, (0, 0, 0): Fraction(-5, 2)}]),
             0.3, small),
            # exponent -1: t^-2 = 1/4, and t + 1/t = 0 at t = +-i
            (AMBIENT, g2, relation(1, [{(0, 0, -2): 1, (0, 0, 0): Fraction(-1, 4)}]),
             0.3, small),
            (AMBIENT, g2, relation(1, [{(0, 0, 1): 1, (0, 0, -1): 1}]), 0.3, small),
            # two algebraic slots go the numeric way; one algebraic slot next
            # to a rational one shares a slot polynomial per rational value
            # (t1^2 = t2 holds at (i, -1) and (2^(1/2), 2), not at (i, 2))
            (cls.RANK2, SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2), t_rat(2))]),
             relation(2, [{(0, 0, 1, 0): 1, (0, 0, 0, 1): -1}]), 0.3,
             ExploreConfig(gen_bound=1, rou_order=4, radicals=((Fraction(2), 3),))),
            (cls.RANK2, SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2), t_rat(4))]),
             relation(2, [{(0, 0, 2, 0): 1, (0, 0, 0, 1): -1}]), 0.4,
             ExploreConfig(gen_bound=1, rou_order=4, radicals=((Fraction(2), 2),))),
            (cls.RANK2, SubgroupGamma.of([pt(GEN_EC, t_rat(2), t_rat(3))]),
             relation(2, [{(0, 0, 2, 0): 1, (0, 0, 0, -1): -1},
                          {(1, 0, 0, 0): 1, (0, 0, 1, 1): -3}]), 0.3,
             ExploreConfig(gen_bound=1, rou_order=4, radicals=((Fraction(2), 3),))),
            # Z/6 torsion: x = 0 at (0, +-1) for every z, x t = 2 at (2, +-3)
            (cls.TORSION, SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2))]),
             relation(1, [{(1, 0, 0): 1}]), 0.2,
             ExploreConfig(gen_bound=1, rou_order=6, radicals=((Fraction(2), 3),))),
            (cls.TORSION, SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2))]),
             relation(1, [{(1, 0, 1): 1, (0, 0, 0): -2}]), 0.2,
             ExploreConfig(gen_bound=2, rou_order=6, radicals=((Fraction(2), 3),))),
            # radical families: 2^(1/3) in the ball; 7^(1/3) and, at eps 0.3,
            # 2^(1/2) out of it (t^2 = 8 needs z = 2^(1/2) at gamma = 1)
            (AMBIENT, g2, relation(1, [{(0, 0, 3): 1, (0, 0, 0): -2}]), 0.3,
             ExploreConfig(gen_bound=2, rou_order=6,
                           radicals=((Fraction(2), 8), (Fraction(7), 3)))),
            (AMBIENT, g2, relation(1, [{(0, 0, 2): 1, (0, 0, 0): -8}]), 0.3,
             ExploreConfig(gen_bound=2, rou_order=6, radicals=((Fraction(2), 8),))),
            (AMBIENT, g2, relation(1, [{(0, 0, 2): 1, (0, 0, 0): -8}]), 0.4,
             ExploreConfig(gen_bound=2, rou_order=6, radicals=((Fraction(2), 8),))),
            # gamma's torus value is 1 throughout: x = 3 and x t^2 = -3
            (AMBIENT, unit, relation(1, [{(1, 0, 0): 1, (0, 0, 0): -3}]), 0.3,
             ExploreConfig(gen_bound=1, rou_order=6, radicals=((Fraction(2), 4),))),
            (AMBIENT, unit, relation(1, [{(1, 0, 2): 1, (0, 0, 0): 3}]), 0.3, small),
        ]
        rng = random.Random(6)
        for A, G in ((AMBIENT, g2), (AMBIENT, unit), (cls.TORSION, SubgroupGamma.of(
                [pt(ECPoint.identity(), t_rat(Fraction(-1, 2)))]))):
            for _ in range(3):
                X = random_relation(rng, 1, use_xy=True)
                out.append((A, G, X, 0.3, ExploreConfig(gen_bound=1, rou_order=6,
                                                        radicals=((Fraction(3), 3),))))
        return out

    def test_reports_match_per_candidate_loop(self):
        hits = numeric = 0
        for A, G, X, eps, config in self.cases():
            want = reference_explore(A, G, X, eps, config)
            got = explore_theorem(A, G, X, eps, config)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            hits += got["hit_count"] > 0
            numeric += any(h["membership"].startswith("Numeric") for h in got["hits"])
        assert hits >= 12 and numeric >= 1

    def test_roots_of_unity_apart_share_a_coset(self):
        # t^4 + 2t^3 + 8t^2 + 8t + 16 = (t^2 + 2t + 4)(t^2 + 4) vanishes at
        # 2 zeta_3, 2 zeta_3^2 and +-2i: four hits, one coset
        G = SubgroupGamma.of([pt(ECPoint.identity(), t_rat(2))])
        X = relation(1, [{(0, 0, 4): 1, (0, 0, 3): 2, (0, 0, 2): 8, (0, 0, 1): 8,
                          (0, 0, 0): 16}])
        config = ExploreConfig(gen_bound=1, rou_order=12)
        got = explore_theorem(AMBIENT, G, X, 0.1, config)
        assert got["hit_count"] == 4 and got["cosets"] == [[0, 1, 2, 3]]
        assert got == reference_explore(AMBIENT, G, X, 0.1, config)

    def test_cosets_by_key_without_subtraction(self, monkeypatch):
        # 480 hits of x = 3: grouped without one pairwise subtraction or
        # recomputed certificate
        unit = SubgroupGamma.of([pt(GEN_EC, t_rat(1)), pt(ECPoint.identity(), t_rat(3))])
        X = relation(1, [{(1, 0, 0): 1, (0, 0, 0): -3}])
        config = ExploreConfig(gen_bound=2, rou_order=12, radicals=((Fraction(2), 4),))
        want = reference_explore(AMBIENT, unit, X, 0.3, config)

        def forbidden(*args, **kwargs):
            raise AssertionError("the explorer should not call this")

        monkeypatch.setattr(sa, "_point_sub", forbidden)
        monkeypatch.setattr(sa, "gamma_eps_certificate", forbidden)
        got = explore_theorem(AMBIENT, unit, X, 0.3, config)
        assert got["hit_count"] == 480
        assert got == want

    def test_orbit_verdict_matches_built_point(self):
        # the substituted divisibility test against curve_membership on the
        # point _point_add builds, for r in +-Q*, alpha a root of unity of
        # order <= 12 or a radical, e = +-1; relations planted to vanish at
        # r alpha^e exercise "yes", random ones mostly "no"
        rng = random.Random(66)
        alphas = [root_of_unity(n, k) for n in range(1, 13)
                  for k in range(1, n + 1) if math.gcd(n, k) == 1]
        alphas += [radical(Fraction(p), m) for p in (2, 3, 5) for m in (2, 3, 4, 5)]
        verdicts = set()
        for alpha in alphas:
            for e in (1, -1):
                r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                ec = rng.choice((ECPoint.identity(), GEN_EC))
                gamma = pt(ec, t_rat(r))
                z = pt(ECPoint.identity(), TorusElement(alpha, e))
                # f(s) at s = (t / r)^e, times y / 5 when y = 5, times (t - q)
                f = alpha.minpoly.coeffs
                planted = {}
                for i, a in enumerate(f):
                    if a:
                        key = (0, int(not ec.is_identity), e * i)
                        planted[key] = Fraction(a) / r ** (e * i) / (5 if key[1] else 1)
                q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                cofactor = {}
                for (a, b, k), c in planted.items():
                    cofactor[(a, b, k + 1)] = cofactor.get((a, b, k + 1), 0) + c
                    cofactor[(a, b, k)] = cofactor.get((a, b, k), 0) - q * c
                cofactor = {k: c for k, c in cofactor.items() if c}
                x = sa._point_add(AMBIENT, gamma, z)
                for X in (relation(1, [planted]), relation(1, [cofactor]),
                          random_relation(rng, 1, use_xy=not ec.is_identity)):
                    want = curve_membership(X, x)
                    assert want.is_exact
                    fallback, classes = sa._membership_classes([z])
                    assert fallback == [] and len(classes) == 1
                    (slot, values, t, indices), = classes[z.ec].values()
                    xy = (ec.x, ec.y) if not ec.is_identity else (Fraction(0),) * 2
                    got = sa._class_on_locus(X, xy, [r], slot, values, t, {})
                    assert got == want.is_yes, (alpha, e, r, X)
                    verdicts.add(got)
                assert curve_membership(relation(1, [planted]), x).is_yes
        assert verdicts == {True, False}

    def test_degree_rejection_matches_divisibility(self):
        # the class decider, which rejects a nonzero P with span(P) |e| <
        # deg alpha before it divides, against _divisibility_zero on the same
        # scaled polynomial; planted zeros sit at span(P) |e| = deg alpha
        rng = random.Random(12)
        alphas = [root_of_unity(n, rng.choice([k for k in range(1, n)
                                               if math.gcd(n, k) == 1]))
                  for n in range(3, 13)]
        alphas += [radical(Fraction(p), m) for p in (2, 3, 5) for m in range(2, 6)]
        seen = set()
        for alpha in alphas:
            d, f = alpha.degree, alpha.minpoly.coeffs
            enc = alpha.enclosure(1e-50)
            for e in (1, -1, 2, -2, 3, -3):
                t = TorusElement(alpha, e)
                r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                polys = []
                for _ in range(4):
                    low, span = rng.randint(-3, 3), rng.randint(0, d + 1)
                    ks = {low, low + span} | {rng.randint(low, low + span) for _ in range(2)}
                    polys.append({k: Fraction(rng.choice((-3, -2, -1, 1, 2, 5)),
                                              rng.randint(1, 4)) for k in ks})
                if all(i % abs(e) == 0 for i, a in enumerate(f) if a):
                    # f(x) = h(x^|e|), so h((t / r)^sign(e)) vanishes at
                    # t = r alpha^e, with span d / |e|; and times (t - q)
                    sign = 1 if e > 0 else -1
                    planted = {}
                    for i, a in enumerate(f):
                        if a:
                            k = sign * (i // abs(e))
                            planted[k] = Fraction(a) / r**k
                    q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                    cofactor = {}
                    for k, c in planted.items():
                        cofactor[k + 1] = cofactor.get(k + 1, 0) + c
                        cofactor[k] = cofactor.get(k, 0) - q * c
                    polys += [planted, {k: c for k, c in cofactor.items() if c}]
                for P in polys:
                    X = relation(1, [{(0, 0, k): c for k, c in P.items()}])
                    scaled = {k: c * r**k for k, c in P.items()}
                    got = sa._class_on_locus(X, (Fraction(0),) * 2, [r], 0, [None], t, {})
                    assert got == sa._divisibility_zero(scaled, t), (alpha, e, r, P)
                    span = (max(P) - min(P)) * abs(e)
                    seen.add((got, "<" if span < d else "=" if span == d else ">"))
                    if got:
                        with mp.workdps(60):
                            s = (mpf(r.numerator) / r.denominator) * mpc(enc.re, enc.im) ** e
                            terms = [mpf(c.numerator) / c.denominator * s**k
                                     for k, c in P.items()]
                            assert abs(sum(terms)) <= mpf(10) ** -40 * sum(map(abs, terms))
                # a slot polynomial that vanishes identically: x t - 3 t at x = 3
                X = relation(1, [{(1, 0, 1): 1, (0, 0, 1): -3}])
                assert sa._class_on_locus(X, (Fraction(3), Fraction(5)), [r], 0, [None], t, {})
        assert seen == {(False, "<"), (False, "="), (False, ">"), (True, "="), (True, ">")}

    def test_degree_rejects_before_division(self, monkeypatch):
        # t = 3/5 has degree 1 in t: every algebraic class is rejected by
        # degree, and the one hit, gamma = (3, 5) - (O, 5) with z = 1, is
        # found without a division by a minimal polynomial
        G = SubgroupGamma.of([pt(GEN_EC, t_rat(3)), pt(ECPoint.identity(), t_rat(5))])
        X = relation(1, [{(0, 0, 1): 1, (0, 0, 0): Fraction(-3, 5)}])
        config = ExploreConfig(gen_bound=2, rou_order=12, radicals=((Fraction(2), 4),))
        want = reference_explore(AMBIENT, G, X, 0.3, config)

        def forbidden(*args, **kwargs):
            raise AssertionError("a degree-1 relation should not reach divides")

        monkeypatch.setattr(IntPolynomial, "divides", forbidden)
        got = explore_theorem(AMBIENT, G, X, 0.3, config)
        assert [(h["gamma_coefficients"], h["membership"]) for h in got["hits"]] == [
            ([1, -1], "ExactYes")]
        assert got == want

    def test_quadratic_relation_still_divides(self, monkeypatch):
        # t^2 = 2 has degree 2, as 2^(1/2), i and zeta_3 do: the general
        # divisibility test still decides those classes, and finds 2^(1/2)
        G = SubgroupGamma.of([pt(GEN_EC, t_rat(3)), pt(ECPoint.identity(), t_rat(5))])
        X = relation(1, [{(0, 0, 2): 1, (0, 0, 0): -2}])
        config = ExploreConfig(gen_bound=2, rou_order=12, radicals=((Fraction(2), 4),))
        want = reference_explore(AMBIENT, G, X, 0.4, config)
        divides, calls = IntPolynomial.divides, []

        def counted(self, other):
            calls.append(self)
            return divides(self, other)

        monkeypatch.setattr(IntPolynomial, "divides", counted)
        got = explore_theorem(AMBIENT, G, X, 0.4, config)
        assert IntPolynomial((-2, 0, 1)) in calls
        assert [(h["gamma_coefficients"], h["small_point"], h["membership"])
                for h in got["hits"]] == [([0, 0], "(O; (root#1 of [-2,0,1])^1)", "ExactYes")]
        assert got == want
