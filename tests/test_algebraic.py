import cmath
import gc
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import mp, mpc, mpf

from smallpoints import algebraic, equidist
from smallpoints.algebraic import (
    AlgebraicError,
    AlgebraicNumber,
    IntPolynomial,
    ReducibleMinpolyError,
    TorusElement,
    conjugates,
    is_root_of_unity,
    mahler_log,
    radical,
    root_of_unity,
    roots,
    scale_by_rational,
    torus_height,
    torus_power,
    weil_height,
)

# log Mahler measure of x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1, frozen from an
# 80-digit independent evaluation (smallest known measure > 1)
LEHMER_MAHLER = 0.1623576120077381394321988035549658077079
# log golden ratio = log Mahler measure of x^2-x-1
LOG_PHI = 0.4812118250596034474977589134243684231352

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def rand_fraction(rng, span=10**6):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def rand_poly(rng, max_deg=4, span=9):
    d = rng.randint(1, max_deg)
    cs = [rng.randint(-span, span) for _ in range(d)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-span, span)
    return IntPolynomial(tuple(cs) + (lead,))


class TestWeilHeight:
    def test_radical_12(self):
        h = weil_height(radical(2, 12))
        assert abs(h - math.log(2) / 12) <= 1e-9

    def test_rationals_exact(self):
        # the measure of c_1 x + c_0 is max(|c_0|, |c_1|), taken at 40 digits
        rng = random.Random(7)
        for _ in range(300):
            r = rand_fraction(rng, 10 ** rng.randint(1, 40))
            h = weil_height(AlgebraicNumber.from_rational(r))
            with mp.workdps(40):
                want = float(mp.log(mpf(max(abs(r.numerator), r.denominator))))
            assert h == want, r

    def test_cyclotomic_zero(self):
        for n in range(1, 31):
            z = root_of_unity(n)
            if z.degree <= 8:
                assert weil_height(z) <= 1e-12

    def test_integer_height(self):
        assert abs(weil_height(AlgebraicNumber.from_rational(7)) - math.log(7)) < 1e-14

    def test_inverse_symmetry(self):
        # h(1/a) = h(a): reversed minimal polynomial
        a = AlgebraicNumber.from_minpoly((2, 3, 5))
        inv = AlgebraicNumber.from_minpoly((5, 3, 2))
        assert abs(weil_height(a) - weil_height(inv)) <= 1e-12


class TestMahler:
    def test_lehmer_oracle(self):
        m = mahler_log(LEHMER, 1e-12)
        assert abs(m.value - LEHMER_MAHLER) <= 1e-12
        assert m.error <= 1e-12

    def test_golden_ratio(self):
        m = mahler_log(IntPolynomial((-1, -1, 1)), 1e-12)
        assert abs(m.value - LOG_PHI) <= 1e-12

    def test_binomial_exact(self):
        m = mahler_log(IntPolynomial((-2,) + (0,) * 199 + (1,)), 1e-12)
        assert abs(m.value - math.log(2)) <= 1e-14

    def test_linear(self):
        m = mahler_log(IntPolynomial((-3, 7)), 1e-12)
        assert abs(m.value - math.log(7)) <= 1e-14

    def test_repeated_and_rational_roots(self):
        # exact rational roots of modulus > 1 in any row, repeated or mixed
        # with irrational ones: (x+2)^2, (x+3)^2 (x^2+1), (2x-3)(x+5)(x^2-2)
        for coeffs, want in (
            ((4, 4, 1), 2 * math.log(2)),
            ((9, 6, 10, 6, 1), 2 * math.log(3)),
            ((30, -14, -19, 7, 2), math.log(30)),
        ):
            m = mahler_log(IntPolynomial(coeffs), 1e-12)
            assert abs(m.value - want) <= 1e-12, coeffs

    def test_additivity(self):
        rng = random.Random(1234)
        for _ in range(15):
            p, q = rand_poly(rng), rand_poly(rng)
            ab = mahler_log(p * q, 1e-10)
            a = mahler_log(p, 1e-10)
            b = mahler_log(q, 1e-10)
            assert abs(ab.value - a.value - b.value) <= 1e-9

    def test_error_is_bound(self):
        m = mahler_log(LEHMER, 1e-6)
        assert m.error <= 1e-6
        assert abs(m.value - LEHMER_MAHLER) <= m.error + 1e-15

    def test_pairs_match_all_rows(self, monkeypatch):
        # each conjugate pair counted twice from one row, against the walk
        # over every row; x^4 + 3x^2 + 1 has its roots on the imaginary axis
        polys = [LEHMER, IntPolynomial((-1, -1, 0, 0, 0, 1)), IntPolynomial((1, 0, 3, 0, 1)),
                 IntPolynomial((7, -3, 0, 2, 5, -1, 4))]
        got = [mahler_log(p, 1e-12) for p in polys]
        monkeypatch.setattr(algebraic, "_conjugate_rows", _every_row)
        for p, m in zip(polys, got):
            ref = mahler_log(p, 1e-12)
            assert abs(m.value - ref.value) <= m.error + ref.error, p

    def test_multiplicities_walk_every_row(self, monkeypatch):
        # (x^2+2)^2 (x^2+x+3): the root table has mult set, and each repeated
        # pair is counted twice, as the walk over every row counts it;
        # M = sqrt(2)^4 * sqrt(3)^2 = 12
        p = IntPolynomial((2, 0, 1)) * IntPolynomial((2, 0, 1)) * IntPolynomial((3, 1, 1))
        m = mahler_log(p, 1e-12)
        assert abs(m.value - math.log(12)) <= m.error + 1e-15
        assert algebraic._root_table(p, 1e-9).mult is not None
        monkeypatch.setattr(algebraic, "_conjugate_rows", _every_row)
        assert mahler_log(p, 1e-12) == m

    def test_unreachable_tol_raises(self):
        # each modulus is padded by |m| 2^-90, so x^5 - x - 1 has an error
        # floor near 1e-27 that no finer enclosure lowers: a tol below it
        # raises at once, after at most two certifications
        for tol in (1e-40, 1e-300):
            algebraic._ordered_roots.cache_clear()
            with pytest.raises(algebraic.RootRefinementError) as info:
                mahler_log(IntPolynomial((-1, -1, 0, 0, 0, 1)), tol)
            assert algebraic._ordered_roots.cache_info().misses <= 2
            floor = float(info.value.padding_floor)
            assert 1e-28 < floor < 1e-26 and f"padding_floor={floor:.3e}" in str(info.value)
        algebraic._ordered_roots.cache_clear()

    def test_binomial_states_its_evaluation_bound(self):
        # the closed-form measure is a 40-digit log: its stated error is that
        # evaluation's bound, and a tol below it raises, naming the floor
        m = mahler_log(IntPolynomial((-(10**300 - 1), 0, 1)), 1e-20)
        assert 0 < m.error <= 1e-20
        with mp.workdps(60):
            want = mp.log(mpf(10**300 - 1))
            assert abs(mpf(m.value) - want) <= m.error + math.ulp(m.value)
        with pytest.raises(algebraic.RootRefinementError) as info:
            mahler_log(IntPolynomial(binomial(-3, 3, 2)), 1e-40)
        floor = float(info.value.evaluation_floor)
        assert 1e-40 < floor < 1e-35
        assert str(info.value).startswith("could not bound log M([-3,0,0,2]) within 1.000e-40")

    def test_tol_above_padding_floor_is_met(self):
        p = IntPolynomial((-1, -1, 0, 0, 0, 1))
        m = mahler_log(p, 1e-25)
        assert m.error <= 1e-25
        with mp.workdps(60):
            want = sum(mp.log(max(1, abs(z))) for z in mp.polyroots([1, 0, 0, 0, -1, -1]))
            # the value is a float: its rounding comes on top of the error
            assert abs(mpf(m.value) - want) <= m.error + math.ulp(m.value)
        algebraic._ordered_roots.cache_clear()


def _every_row(t):
    return ((i, *row, False) for i, row in enumerate(algebraic._mp_rows(t)))


class TestRoots:
    def test_count_and_radius(self):
        rng = random.Random(99)
        for _ in range(10):
            p = rand_poly(rng, max_deg=6)
            rs = roots(p, 1e-10)
            assert len(rs) == p.degree
            assert all(float(r.radius) <= 1e-10 for r in rs)

    def test_disjoint_squarefree(self):
        p = IntPolynomial((-2, 0, 0, 0, 0, 0, 0, 0, 1))
        rs = roots(p, 1e-12)
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                d = abs(complex(rs[i].center) - complex(rs[j].center))
                assert d > float(rs[i].radius) + float(rs[j].radius)

    def test_residual_bound(self):
        rng = random.Random(5)
        for _ in range(10):
            p = rand_poly(rng, max_deg=5)
            d = p.degree
            cmax = max(abs(c) for c in p.coeffs)
            for r in roots(p, 1e-10):
                z = complex(r.center)
                res = abs(p(z))
                bound = d * cmax * (1 + abs(z)) ** d * float(r.radius)
                assert res <= bound + 1e-12

    def test_conjugate_symmetry(self):
        p = IntPolynomial((3, -1, 2, 0, 1))
        rs = roots(p, 1e-12)
        for r in rs:
            if not r.is_real:
                mates = [
                    s
                    for s in rs
                    if abs(float(s.re - r.re)) <= 1e-9
                    and abs(float(s.im + r.im)) <= 1e-9
                ]
                assert len(mates) == 1

    def test_ordering_deterministic(self):
        p = IntPolynomial((-2, 0, 0, 0, 0, 0, 0, 0, 0, 1))
        a = roots(p, 1e-9)
        b = roots(p, 1e-15)
        for x, y in zip(a, b):
            assert abs(float(x.re - y.re)) < 1e-8
            assert abs(float(x.im - y.im)) < 1e-8
            assert x.is_real == y.is_real

    def test_real_recentred(self):
        for r in roots(IntPolynomial((-2, 0, 0, 1)), 1e-12):
            if r.is_real:
                assert float(r.im) == 0.0
                assert algebraic._angle_unit(r.re, r.im, r.is_real) in (0.0, 0.5)

    def test_repeated_factor_repeats_rows(self):
        # (x^2 + 2)^2 takes the merge path: the rows of x^2 + 2, each twice
        once = roots(IntPolynomial((2, 0, 1)))
        twice = roots(IntPolynomial((4, 0, 4, 0, 1)))
        assert twice == [replace(r, multiplicity=2) for r in once for _ in range(2)]

    def test_multiplicity_expansion(self):
        sq = IntPolynomial((-1, 1)) * IntPolynomial((-1, 1)) * IntPolynomial((2, 1))
        rs = roots(sq, 1e-10)
        assert len(rs) == 3
        assert sorted(r.multiplicity for r in rs) == [1, 2, 2]

    def test_linear_exact(self):
        (r,) = roots(IntPolynomial((-2, 3)), 1e-12)
        assert r.exact == Fraction(2, 3)
        assert r.is_real

    def test_degree_zero_rejected(self):
        with pytest.raises(AlgebraicError):
            roots(IntPolynomial((5,)), 1e-9)


class TestAlgebraicNumber:
    def test_reducible_rejected(self):
        with pytest.raises(ReducibleMinpolyError) as ei:
            AlgebraicNumber.from_minpoly((-1, 0, 1))
        assert ei.value.factor.degree >= 1
        assert ei.value.factor.divides(IntPolynomial((-1, 0, 1)))

    def test_reducible_high_degree(self):
        # (x^2+1)(x^2-2)
        with pytest.raises(ReducibleMinpolyError):
            AlgebraicNumber.from_minpoly((-2, 0, -1, 0, 1))

    def test_index_out_of_range(self):
        with pytest.raises(AlgebraicError):
            AlgebraicNumber.from_minpoly((-2, 0, 1), index=5)
        # a degree-d polynomial has the indices 0..d-1, however it is built
        with pytest.raises(AlgebraicError):
            AlgebraicNumber(IntPolynomial((-2, 0, 1)), 2)

    def test_select_by_approx(self):
        a = AlgebraicNumber.from_minpoly((-2, 0, 1), approx=1.414)
        assert abs(a.approx().real - math.sqrt(2)) < 1e-9
        b = AlgebraicNumber.from_minpoly((-2, 0, 1), approx=-1.414)
        assert abs(b.approx().real + math.sqrt(2)) < 1e-9

    def test_canonicalization(self):
        a = AlgebraicNumber.from_minpoly((4, 0, -2))  # -2x^2 + 4
        assert a.minpoly.coeffs == (-2, 0, 1)

    def test_conjugates(self):
        a = radical(2, 5)
        cs = conjugates(a)
        assert len(cs) == 5
        hs = [weil_height(c) for c in cs]
        assert max(hs) - min(hs) <= 1e-12

    def test_rational_detection(self):
        a = AlgebraicNumber.from_rational(Fraction(-3, 4))
        assert a.is_rational and a.as_rational() == Fraction(-3, 4)


class TestRootsOfUnity:
    def test_orders(self):
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 30]:
            assert is_root_of_unity(root_of_unity(n)) == n

    def test_nonprimitive_k(self):
        z = root_of_unity(12, 5)
        assert is_root_of_unity(z) == 12

    def test_radical_not(self):
        assert is_root_of_unity(radical(2, 8)) is None

    def test_unit_but_not_rou(self):
        # Lehmer's polynomial is monic with constant 1 but not cyclotomic
        a = AlgebraicNumber(LEHMER, 0)
        assert is_root_of_unity(a) is None

    def test_rational_prefilter(self):
        assert is_root_of_unity(AlgebraicNumber.from_rational(2)) is None
        assert is_root_of_unity(AlgebraicNumber.from_rational(-1)) == 2
        assert is_root_of_unity(AlgebraicNumber.from_rational(1)) == 1

    def test_angle(self):
        i = root_of_unity(4)
        r = i.enclosure()
        assert abs(algebraic._angle_unit(r.re, r.im, r.is_real) - 0.25) < 1e-12

    def test_coprimality_required(self):
        with pytest.raises(AlgebraicError):
            root_of_unity(12, 4)


class TestScaling:
    def test_exact_rational(self):
        a = AlgebraicNumber.from_rational(Fraction(3, 7))
        b = scale_by_rational(a, Fraction(7, 3))
        assert b.as_rational() == 1

    def test_triangle(self):
        rng = random.Random(21)
        for _ in range(10):
            a = radical(rng.randint(2, 9), rng.randint(2, 6))
            r = rand_fraction(rng, span=50)
            if r == 0:
                continue
            hr = weil_height(AlgebraicNumber.from_rational(r))
            assert weil_height(scale_by_rational(a, r)) <= hr + weil_height(a) + 1e-9

    def test_roundtrip(self):
        a = radical(5, 3)
        r = Fraction(4, 9)
        back = scale_by_rational(scale_by_rational(a, r), 1 / r)
        assert back.minpoly == a.minpoly and back.index == a.index

    def test_value(self):
        a = radical(2, 2)
        b = scale_by_rational(a, 3)
        assert abs(b.approx().real - 3 * math.sqrt(2)) < 1e-9
        # both conjugates have modulus 3*sqrt(2), so the height is its log
        assert abs(weil_height(b) - math.log(3 * math.sqrt(2))) < 1e-9


class TestTorus:
    def test_power_height(self):
        t = TorusElement(radical(2, 12))
        assert abs(torus_height(torus_power(t, 8)) - 8 * math.log(2) / 12) <= 1e-12

    def test_power_composition(self):
        t = TorusElement(radical(3, 5))
        assert torus_power(torus_power(t, 2), 3) == torus_power(t, 6)

    def test_negative_exponent(self):
        t = TorusElement.from_rational(Fraction(2, 3), -2)
        assert t.rational_value() == Fraction(9, 4)
        assert abs(torus_height(t) - 2 * math.log(3)) <= 1e-12

    def test_unit_circle(self):
        assert TorusElement(root_of_unity(7), 3).is_unit_circle()
        assert not TorusElement(radical(2, 3)).is_unit_circle()
        assert torus_height(TorusElement(root_of_unity(7), 5)) == 0.0

    def test_height_beyond_float_range(self):
        assert torus_height(TorusElement.from_rational(2, 2**1022)) == 2**1022 * math.log(2)
        for base, e in ((20, 2**1023), (2, 10**400), (2, -(10**400))):
            with pytest.raises(OverflowError):
                torus_height(TorusElement.from_rational(base, e))

    def test_height_at_huge_exponent(self):
        # the float product cannot carry h(base) finer than 2^-52 of itself,
        # so the value is within tol + 2^-50 value of |e| h(base)
        base = AlgebraicNumber.from_minpoly((-1, -1, 0, 0, 0, 1))
        with mp.workdps(50):
            h = sum(mp.log(abs(z)) for z in mp.polyroots([1, 0, 0, 0, -1, -1])
                    if abs(z) > 1) / 5
            for e in (2**40, -(2**40), 2**1000):
                value = torus_height(TorusElement(base, e), 1e-12)
                assert abs(mpf(value) - abs(e) * h) <= 1e-12 + 2.0**-50 * value, e

    def test_exponent_one_asks_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(algebraic, "weil_height",
                            lambda a, tol: calls.append(tol) or weil_height(a, tol))
        t = TorusElement(radical(3, 5))
        assert torus_height(t, 1e-12) == weil_height(t.base, 1e-12)
        assert calls == [1e-12]

    def test_zero_base_rejected(self):
        with pytest.raises(AlgebraicError):
            TorusElement.from_rational(0)


class TestRadical:
    def test_negative_odd(self):
        a = radical(-2, 3)
        assert a.approx().real < 0
        assert abs(weil_height(a) - math.log(2) / 3) <= 1e-12

    def test_negative_even_rejected(self):
        with pytest.raises(AlgebraicError):
            radical(-2, 2)

    def test_reducible_power(self):
        # x^4 - 4 factors; the real 4th root of 4 is sqrt(2)
        a = radical(4, 4)
        assert a.minpoly.coeffs == (-2, 0, 1)
        assert abs(a.approx().real - math.sqrt(2)) < 1e-12

    def test_rational_radical(self):
        a = radical(Fraction(8, 27), 3)
        assert a.is_rational and a.as_rational() == Fraction(2, 3)
        assert radical(Fraction(-8, 27), 3).as_rational() == Fraction(-2, 3)

    def test_capelli_matches_factor_list(self):
        rng = random.Random(12)
        cases = [(Fraction(4), 4), (Fraction(64), 12), (Fraction(1), 6), (Fraction(-1), 15)]
        for _ in range(30):
            base = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 30))
            r, m = base ** rng.choice([1, 2, 3, 4, 6, 12]), rng.randint(1, 60)
            cases.append((r, m + (r < 0 and m % 2 == 0)))
        for _ in range(4):
            big = Fraction(rng.getrandbits(110) | 1, rng.getrandbits(20) | 1)
            cases.append((big, rng.randint(2, 12)))
            cases.append((Fraction(rng.getrandbits(40) | 1, 3) ** 6, rng.choice([4, 6, 12, 18])))
        for r, m in cases:
            a = radical(r, m)
            want = factor_list_radical(r, m)
            assert (a.minpoly, a.index) == want, (r, m)


def factor_list_radical(r, m):
    """The irreducible factor of den x^m - num owning the real m-th root,
    chosen by sympy's factor_list, and that root's index: the general path
    Capelli's theorem replaces in radical."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(r.denominator * x**m - r.numerator, x).factor_list()
    with mp.workdps(60):
        t = mp.sign(r) * mp.root(abs(mpf(r.numerator)) / r.denominator, m)
        f = min((f for f, _ in factors),
                key=lambda f: abs(mp.polyval([int(c) for c in f.all_coeffs()], t)))
    poly = IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs()))).primitive()
    rs = roots(poly, 1e-12)
    return poly, next(i for i, z in enumerate(rs) if z.is_real and (z.re > 0) == (r > 0))


# ---------------------------------------------------------------------------
# exact structure: cyclotomic polynomials, closed-form seeds, the index map
# ---------------------------------------------------------------------------


def true_roots_lex(coeffs):
    """60-digit roots of a binomial or Phi_n from their closed forms, in
    lexicographic (re, im) order; conjugates tie exactly in re, so re is
    compared at 40 digits."""
    d = len(coeffs) - 1
    with mp.workdps(60):
        if not any(coeffs[1:-1]):
            rho = mp.root(mpf(abs(coeffs[0])) / abs(coeffs[-1]), d)
            delta = 1 if (coeffs[0] > 0) == (coeffs[-1] > 0) else 0
            zs = [rho * mp.expjpi(mpf(2 * k + delta) / d) for k in range(d)]
        else:
            n = algebraic._cyclotomic_order(tuple(coeffs))
            zs = [mp.expjpi(mpf(2 * k) / n) for k in range(n) if math.gcd(k, n) == 1]
        return sorted(zs, key=lambda z: (int(mp.nint(z.real * mpf(10) ** 40)), z.imag))


def contains(root, z) -> bool:
    with mp.workdps(60):
        return abs(root.center - z) <= root.radius


def binomial(c0, d, cd):
    return (c0,) + (0,) * (d - 1) + (cd,)


class TestCyclotomic:
    def test_matches_sympy(self):
        x = sympy.Symbol("x")
        for n in range(1, 201):
            want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
            assert algebraic._cyclotomic(n) == tuple(int(c) for c in reversed(want)), n

    def test_recognised_exactly(self):
        for n in range(1, 201):
            cs = algebraic._cyclotomic(n)
            assert algebraic._cyclotomic_order(cs) == n
            assert is_root_of_unity(AlgebraicNumber(IntPolynomial(cs), 0)) == n
        # same degree, monic, unit constant, palindromic, not cyclotomic
        assert algebraic._cyclotomic_order(LEHMER.coeffs) is None
        assert algebraic._cyclotomic_order((1, 3, 1)) is None


class TestClosedFormSeeds:
    """Closed-form seeds against the np.roots path they bypass."""

    @staticmethod
    def both_paths(coeffs, monkeypatch, eps=2.0**-30):
        closed = algebraic._certify(coeffs, eps)
        with monkeypatch.context() as m:
            m.setattr(algebraic, "_closed_form_seeds", lambda cs: None)
            general = algebraic._certify(coeffs, eps)
        return closed, general

    def check(self, coeffs, monkeypatch):
        assert algebraic._closed_form_seeds(coeffs) is not None
        want = true_roots_lex(coeffs)
        for table in self.both_paths(coeffs, monkeypatch):
            rs = algebraic._roots_of(table)
            assert table.lex and len(rs) == len(want)
            for i, (r, z) in enumerate(zip(rs, want)):
                assert contains(r, z), (coeffs, i)

    def test_binomials(self, monkeypatch):
        rng = random.Random(2)
        for d in list(range(2, 25)) + list(range(37, 201, 27)) + [200]:
            for sign in (1, -1):
                c0, cd = rng.randint(1, 50), rng.randint(1, 50)
                self.check(binomial(sign * c0, d, cd), monkeypatch)

    def test_cyclotomics(self, monkeypatch):
        for n in range(3, 62):
            self.check(algebraic._cyclotomic(n), monkeypatch)


def geometric_scale(a, r):
    """The matcher scale_by_rational used before the index map: certify the
    scaled polynomial's roots and pick the one whose disk meets r times a's
    enclosure."""
    r = Fraction(r)
    s, t = r.numerator, r.denominator
    d = a.degree
    cs = tuple(c * s ** (d - i) * t**i for i, c in enumerate(a.minpoly.coeffs))
    poly = IntPolynomial(cs).primitive()
    eps = 1e-12
    for _ in range(30):
        src = a.enclosure(eps)
        with mp.workdps(60):
            cre, cim = src.re * s / t, src.im * s / t
            crad = src.radius * abs(mpf(s)) / t
            cands = [
                i
                for i, rt in enumerate(roots(poly, eps))
                if mp.sqrt((rt.re - cre) ** 2 + (rt.im - cim) ** 2) <= rt.radius + crad
            ]
        if len(cands) == 1:
            return AlgebraicNumber(poly, cands[0])
        eps /= 256
    raise AlgebraicError("could not match the scaled root")


SCALES = [Fraction(1, 47**3), Fraction(1, 47), Fraction(1, 2), Fraction(3), Fraction(47),
          Fraction(47**3)]
SCALES += [-r for r in SCALES]


def scaling_sources():
    for n in (3, 4, 5, 7, 8, 12):
        yield from conjugates(root_of_unity(n))
    for base, m in ((2, 3), (3, 4), (Fraction(2, 3), 5), (5, 2)):
        yield from conjugates(radical(base, m))


class TestIndexMap:
    def test_matches_geometric_matcher(self):
        for a in scaling_sources():
            alpha = true_roots_lex(a.minpoly.coeffs)[a.index]
            for r in SCALES:
                b = scale_by_rational(a, r)
                assert b == geometric_scale(a, r), (a, r)
                with mp.workdps(60):
                    ra = alpha * mpf(r.numerator) / r.denominator
                for eps in (1e-9, 1e-15):
                    assert contains(b.enclosure(eps), ra), (a, r, eps)

    def test_scaled_cyclotomic_regression(self):
        # Phi_11(2352637 x) once defeated the certifier inside the matcher,
        # and its enclosures and heights
        r = Fraction(1, 2352637)
        for k in range(1, 11):
            a = root_of_unity(11, k)
            b = scale_by_rational(a, r)
            assert b.index == a.index and b.degree == 10
            with mp.workdps(60):
                want = mp.expjpi(mpf(2 * k) / 11) / 2352637
            assert contains(b.enclosure(), want)
            assert abs(weil_height(b) - math.log(2352637)) <= 1e-12

    def test_roundtrip_negative(self):
        a = root_of_unity(12, 5)
        b = scale_by_rational(scale_by_rational(a, Fraction(-7, 3)), Fraction(-3, 7))
        assert b == a


def scaled_poly(coeffs, r):
    """The primitive polynomial with the roots z / r, z the roots of coeffs."""
    s, t = Fraction(r).numerator, Fraction(r).denominator
    d = len(coeffs) - 1
    return IntPolynomial(tuple(c * s**i * t ** (d - i) for i, c in enumerate(coeffs))).primitive()


def rand_irreducible(rng, bits, d):
    while True:
        cs = [rng.getrandbits(bits) * rng.choice((-1, 1)) for _ in range(d + 1)]
        p = IntPolynomial(tuple(cs)).primitive()
        if p.degree == d and algebraic._irreducible_or_factor(p) is None:
            return p.coeffs


def certifier_corpus():
    """Seeded cases, each a list of factors (base coefficients, r) whose
    product of base(r x) is certified: scaled Phi_n and Lehmer (r up to
    10^+-12, and past float64 range), random
    irreducibles with 60-200-bit coefficients, and products whose root
    moduli are spread by up to 10^20, one with a repeated factor."""
    rng = random.Random(20261018)
    cases = []
    for n in (3, 5, 7, 11, 12, 15):
        for e in (-12, -6, 6, 12):
            cases.append([(algebraic._cyclotomic(n), Fraction(10) ** e)])
    cases += [[(algebraic._cyclotomic(11), r)] for r in (2352637, Fraction(1, 2352637))]
    cases += [[(LEHMER.coeffs, Fraction(10) ** e)] for e in (-12, -3, 3, 12)]
    # coefficients spread past float64 range before the rescaling
    cases += [[(algebraic._cyclotomic(5), Fraction(10) ** e)] for e in (-80, 80)]
    cases += [[(LEHMER.coeffs, Fraction(10) ** e)] for e in (-40, 40)]
    for bits in (60, 100, 150, 200):
        for d in (3, 5, 8):
            cases.append([(rand_irreducible(rng, bits, d), 1)])
    cases += [
        [((1, 0, 1), 1), ((1, 0, 1), 10**12)],
        [((-2, 0, 0, 1), 1), ((-1, 0, 0, 1), Fraction(1, 10**12))],
        [(algebraic._cyclotomic(7), 1), ((-1, 1), 10**15)],
        [((1, 1, 1), 1), ((1, 0, 0, 0, 1), Fraction(1, 10**10))],
        [(LEHMER.coeffs, 1), ((3, 0, 1), 10**10)],
        [((-2, 0, 1), 1), ((-2, 0, 1), 1), ((1, 0, 1), 10**12)],
    ]
    return cases


class TestCertifierCorpus:
    """Every corpus case certifies at eps 1e-9 (float64) and 1e-30 (mpmath),
    each distinct disk holds one distinct root of a 60-digit mp.polyroots
    reference, and the canonical index of every root is the same at both
    eps."""

    @staticmethod
    def reference(factors):
        out = []
        with mp.workdps(60):
            for base, r in dict.fromkeys(factors):
                r = Fraction(r)
                zs = mp.polyroots([mpf(c) for c in reversed(base)], maxsteps=100, extraprec=60)
                out += [z * r.denominator / r.numerator for z in zs]
        return out

    @staticmethod
    def held(rs, ref):
        """The reference root each disk holds, up to the reference's own
        60-digit error, in disk order."""
        got = []
        for r in rs:
            with mp.workdps(60):
                hits = [
                    i for i, z in enumerate(ref)
                    if abs(r.center - z) <= r.radius + abs(z) * mpf(10) ** -55
                ]
            assert len(hits) == 1
            got.append(hits[0])
        assert sorted(got) == list(range(len(ref)))
        return got

    def test_corpus(self):
        algebraic._ordered_roots.cache_clear()
        for factors in certifier_corpus():
            p = IntPolynomial((1,))
            for base, r in factors:
                p = p * scaled_poly(base, r)
            ref = self.reference(factors)
            held = []
            for eps in (1e-9, 1e-30):
                rs = roots(p, eps)
                assert len(rs) == p.degree
                assert all(float(r.radius) <= eps for r in rs), (p, eps)
                distinct = list(dict.fromkeys(rs))
                assert sum(r.multiplicity for r in distinct) == p.degree
                held.append(self.held(distinct, ref))
            assert held[0] == held[1], p


class TestGeometry:
    """The one disk geometry gives the same verdicts on float64 and on mpf
    disks."""

    @staticmethod
    def verdict(zs, rads):
        f = algebraic._geometry(np.array(zs, dtype=complex), np.array(rads, dtype=float))
        with mp.workdps(30):
            m = algebraic._geometry(
                np.array([mpc(z) for z in zs], dtype=object),
                np.array([mpf(r) for r in rads], dtype=object),
            )
        if f is None or m is None:
            assert f is m
            return None
        assert (list(f[0]), f[1], f[2]) == (list(m[0]), m[1], m[2])
        return list(f[0]), f[1], f[2]

    def test_verdicts(self):
        # a conjugate pair and a real root whose centre is off the axis
        got = self.verdict([0.5 + 1j, 0.5 - 1j, -2 + 1e-20j], [1e-9] * 3)
        assert got == ([False, False, True], [2, 1, 0], True)
        # three roots with one real part sort by imaginary part, not lex
        got = self.verdict([1 + 2j, 1 - 2j, 1 + 0j], [1e-9] * 3)
        assert got == ([False, False, True], [1, 2, 0], False)
        # disks within relative 1e-9 of touching count as overlapping
        assert self.verdict([0, 2e-9 * (1 + 1e-12)], [1e-9, 1e-9]) is None
        # a non-real disk whose mirror image meets no disk is ambiguous
        assert self.verdict([1 + 1j], [0.1]) is None
        # overlapping disks whose mirror images each meet one disk
        assert self.verdict([0.5 + 1j, 2 + 1j, 0.5 - 1j, 2 - 1j], [0.9, 0.9, 0.01, 0.01]) is None


class TestRootRefinementError:
    def test_fields_name_the_failure(self, monkeypatch):
        # with the ladder capped at 40 digits no disk reaches 1e-60
        monkeypatch.setattr(algebraic, "_MAX_DPS", 40)
        algebraic._ordered_roots.cache_clear()
        with pytest.raises(algebraic.RootRefinementError) as info:
            roots(LEHMER, 1e-60)
        exc = info.value
        assert exc.poly == LEHMER and exc.eps == 2.0 ** math.floor(math.log2(1e-60))
        assert 1e-60 < exc.achieved_radius < 1e-30
        with mp.workdps(40):
            assert exc.prec == mp.prec
        for text in (str(LEHMER), f"{exc.eps:.3e}", f"{exc.prec}-bit"):
            assert text in str(exc)


def parent_construction(z, rad, geometry, k):
    """The per-root construction of root tables before they held columns:
    one CertifiedRoot per disk, built at the current mpmath precision from
    the Newton pass's centres and radii and its geometry; returned as an
    mpf table so that the rest of the pipeline is shared."""
    real, order, lex = geometry
    out = []
    for i in order:
        x, y, r = mpf(z[i].real), mpf(z[i].imag), mpf(rad[i] * (1 + 1e-12))
        if real[i]:
            r, y = r + abs(y), mpf(0)
        if k:
            x, y, r = mp.ldexp(x, k), mp.ldexp(y, k), mp.ldexp(r, k)
        out.append(algebraic.CertifiedRoot(x, y, r, bool(real[i])))
    return algebraic._table_of(out, lex)


def table_cases():
    """(polynomial, eps values, irreducible) for the table tests: the
    certifier corpus, a sample of binomials of degree 2-200, Phi_n for
    n <= 61 and Lehmer. The mpmath rungs that 1e-30 (and, for Phi_n, 1e-12)
    need run on a sample: binomials to degree 64 and Phi_n for n <= 30 and
    five larger n, since all of them take 10 s."""
    every = (1e-9, 1e-12, 1e-30)
    cases = []
    for factors in certifier_corpus():
        p = IntPolynomial((1,))
        for base, r in factors:
            p = p * scaled_poly(base, r)
        cases.append((p, every, len(factors) == 1))
    rng = random.Random(5)
    for d in (2, 3, 4, 7, 12, 25, 37, 64, 101, 150, 199, 200):
        for sign in (1, -1):
            p = IntPolynomial(binomial(sign * rng.randint(1, 50), d, rng.randint(1, 50)))
            cases.append((p, every if d <= 64 else every[:2], False))
    cases += [
        (IntPolynomial(algebraic._cyclotomic(n)),
         every if n <= 30 or n in (37, 45, 53, 60, 61) else every[:1], True)
        for n in range(1, 62)
    ]
    return cases + [(LEHMER, every, True)]


class TestRootTables:
    def test_roots_match_per_root_construction(self, monkeypatch):
        """roots() and enclosure() against the CertifiedRoots the parent
        construction builds from the same (deterministic) Newton passes."""
        float64 = mpmath = rounded = 0
        for p, eps_list, irreducible in table_cases():
            for eps in eps_list:
                algebraic._ordered_roots.cache_clear()
                got = roots(p, eps)
                table = algebraic._ordered_roots(p.coeffs, algebraic._eps_bucket(eps))
                float64 += table.re.dtype == float
                mpmath += table.re.dtype == object
                # cache hits build equal roots, whole or one index at a time
                assert roots(p, eps) == got
                if irreducible:
                    for i, g in enumerate(got):
                        assert AlgebraicNumber(p, i).enclosure(eps) == g, (p, eps, i)
                        # the nearest-root pick reads the scaled table too
                        assert algebraic._index_near(p, complex(g.center)) == i
                # redo the same passes with the parent's construction
                algebraic._ordered_roots.cache_clear()
                with monkeypatch.context() as m:
                    m.setattr(algebraic, "_table", parent_construction)
                    want = roots(p, eps)
                assert len(got) == len(want) == p.degree
                for g, w in zip(got, want):
                    if g != w:
                        # r + |im| of a real root is rounded up now, where
                        # it was rounded to nearest: at most one ulp above
                        assert g.is_real and replace(g, radius=w.radius) == w, (p, eps)
                        assert w.radius < g.radius <= w.radius * (1 + mpf(2) ** -52)
                        rounded += 1
        # both column types are exercised, and a few real radii round up
        assert float64 > 200 and mpmath > 50 and 0 < rounded < 60
        algebraic._ordered_roots.cache_clear()

    def test_index_near_far_from_the_roots(self):
        # the roots +-1e-100 i sit near 2^-332: an approx of 1e300 overflows
        # the comparison in y, where every distance in x rounds equal
        p = IntPolynomial((1, 0, 10**200))
        rs = roots(p, 1e-9)
        for approx in (1e300, -1e300j, 1e-100j, -1e-100j, 1e-100 - 1e-100j):
            want = min(range(2), key=lambda i: (abs(complex(rs[i].center) - approx), i))
            assert algebraic._index_near(p, complex(approx)) == want, approx

    def test_real_radius_rounds_up(self):
        # real roots whose centres sit off the axis: the radius becomes
        # r + |im| rounded up, in float64 and in mpf, so each disk holds the
        # one it replaces; some of these sums round down to nearest
        rng = random.Random(8)
        below = 0
        for _ in range(200):
            r = rng.uniform(1e-14, 1e-12)
            ims = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, -15) for _ in range(2)]
            z = np.array([-0.5 + ims[0] * 1j, 0.5 + ims[1] * 1j])
            rad = np.array([r, r])
            mzs = np.array([mpc(w) for w in z], dtype=object)
            mrad = np.array([mpf(r)] * 2, dtype=object)
            for zs, rads, ulp in ((z, rad, 2.0**-52), (mzs, mrad, mpf(2) ** (1 - 80))):
                with mp.workprec(80):
                    t = algebraic._table(zs, rads, algebraic._geometry(zs, rads), 0)
                    assert list(t.real) == [True, True] and list(t.im) == [0, 0]
                    for i in range(2):
                        r = rads[i] * (1 + 1e-12)
                        exact = mp.fadd(r, abs(mpf(ims[i])), exact=True)
                        assert 0 <= mp.fsub(t.rad[i], exact, exact=True) <= exact * ulp
                        below += rads is rad and mpf(r + abs(ims[i])) < exact
        assert below > 10

    def test_degree_200_entry_is_small(self):
        algebraic._ordered_roots.cache_clear()
        a = radical(Fraction(2, 3), 200)
        assert a.degree == 200
        tracemalloc.start()
        try:
            algebraic._ordered_roots.cache_clear()
            gc.collect()
            before = tracemalloc.take_snapshot()
            table = algebraic._ordered_roots(a.minpoly.coeffs, algebraic._eps_bucket(1e-12))
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert table.re.dtype == float
        size = sum(d.size_diff for d in after.compare_to(before, "filename"))
        assert 0 < size <= 8192, size
        algebraic._ordered_roots.cache_clear()


class TestErrorContext:
    def test_radical_without_real_root(self, monkeypatch):
        real = algebraic._root_table

        def no_real(p, eps):
            return real(p, eps)._replace(real=np.zeros(p.degree, dtype=bool))

        monkeypatch.setattr(algebraic, "_root_table", no_real)
        with pytest.raises(AlgebraicError) as info:
            radical(Fraction(2, 3), 5)
        exc = info.value
        assert (exc.r, exc.m, exc.poly) == (Fraction(2, 3), 5, IntPolynomial((-2, 0, 0, 0, 0, 3)))
        assert str(exc) == f"no certified real root found for the radical; r=2/3; m=5; poly={exc.poly}"

    def test_unmatched_scaled_root(self, monkeypatch):
        a = AlgebraicNumber(LEHMER, 3)
        # take the lex index map away and make every disk meet every other
        real = algebraic._root_table

        def wide(p, eps):
            t = real(p, eps)
            return t._replace(lex=False, rad=np.full(len(t.rad), 1e3))

        monkeypatch.setattr(algebraic, "_root_table", wide)
        with pytest.raises(AlgebraicError) as info:
            scale_by_rational(a, Fraction(3, 7))
        exc = info.value
        assert exc.r == Fraction(3, 7) and exc.poly == scaled_poly(LEHMER.coeffs, Fraction(7, 3))
        assert exc.eps == 1e-12 / 256**29
        assert str(exc) == f"could not match the scaled root; poly={exc.poly}; r=3/7; eps={exc.eps}"

    def test_conjugates_not_separated_from_zero(self, monkeypatch):
        monkeypatch.setattr(equidist, "_measure_at", lambda minpoly, eps: None)
        alpha = radical(2, 3)
        with pytest.raises(equidist.EquidistError) as info:
            equidist.orbit_measure(alpha, eps=1e-9)
        exc = info.value
        assert exc.minpoly == alpha.minpoly and exc.eps == 1e-9 / 64**3
        assert str(exc) == (
            f"could not separate the conjugates from zero; minpoly={exc.minpoly}; eps={exc.eps}"
        )


# 10^12 ((x-1)^2 + 4)((x-1)^2 + 1) + x, irreducible: roots near 1 +- 2i and
# 1 +- i whose real parts differ by about 1.7e-13. The float64 pass (radius
# 2.5e-13) puts all four in one real-part group and orders them by im; a
# 1e-16 pass would separate the pairs and order them by re
NEAR_TIE = IntPolynomial((10**13, -13999999999999, 11 * 10**12, -4 * 10**12, 10**12))


def same_root(a, b) -> bool:
    """Whether the disks of a and b meet, with equal realness."""
    with mp.workdps(60):
        return a.is_real == b.is_real and abs(a.center - b.center) <= a.radius + b.radius


class TestOneRootOrder:
    """A root index names one root at every eps and in any call order: the
    first certified pass fixes the order, and finer passes only shrink its
    disks."""

    def test_index_survives_a_finer_certification(self):
        algebraic._ordered_roots.cache_clear()
        a = AlgebraicNumber.from_minpoly(NEAR_TIE.coeffs, 0)
        before = a.enclosure(1e-9)
        roots(NEAR_TIE, 1e-16)
        after = a.enclosure(1e-9)
        assert after.radius <= 1e-16 and same_root(before, after)
        assert abs(a.approx() - complex(1, -2)) < 1e-9
        algebraic._ordered_roots.cache_clear()

    @pytest.mark.parametrize("order", [(1e-9, 1e-16), (1e-16, 1e-9)])
    def test_rows_match_in_either_call_order(self, order):
        algebraic._ordered_roots.cache_clear()
        first, second = (roots(NEAR_TIE, eps) for eps in order)
        assert all(same_root(a, b) for a, b in zip(first, second))
        algebraic._ordered_roots.cache_clear()
        fresh = roots(NEAR_TIE, order[1])
        assert all(same_root(a, b) for a, b in zip(first, fresh))
        algebraic._ordered_roots.cache_clear()

    def test_random_squarefree_orders_agree(self):
        # a 1e-9 table comes from the float64 pass, a 1e-40 one from an
        # mpmath rung; each is certified afresh
        rng = random.Random(17)
        x = sympy.Symbol("x")
        done = 0
        while done < 30:
            p = rand_poly(rng, max_deg=12, span=50)
            if p.degree < 2 or not sympy.Poly(p.coeffs[::-1], x).is_sqf:
                continue
            tables = []
            for eps in (1e-9, 1e-40):
                algebraic._ordered_roots.cache_clear()
                tables.append(roots(p, eps))
            assert all(same_root(a, b) for a, b in zip(*tables)), p
            done += 1
        algebraic._ordered_roots.cache_clear()

    def test_refined_disk_that_leaves_its_root_raises(self, monkeypatch):
        # an mpmath rung whose centres came back reversed would renumber the
        # roots of the float64 reference
        newton = algebraic._newton_bound

        def reversed_rungs(q, z, u):
            z, rad = newton(q, z, u)
            return (z[::-1], rad[::-1]) if z.dtype == object else (z, rad)

        monkeypatch.setattr(algebraic, "_newton_bound", reversed_rungs)
        algebraic._ordered_roots.cache_clear()
        with pytest.raises(algebraic.RootRefinementError) as info:
            roots(LEHMER, 1e-30)
        assert info.value.detail == "a refined disk left its root"
        algebraic._ordered_roots.cache_clear()

    def test_enclosure_and_roots_share_one_entry(self):
        algebraic._ordered_roots.cache_clear()
        AlgebraicNumber(LEHMER, 0).enclosure()
        roots(LEHMER)
        info = algebraic._ordered_roots.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


class TestRootCache:
    def test_finer_entry_serves_coarser_requests(self):
        p = IntPolynomial((-3, 1, 0, 0, 0, 1))
        algebraic._ordered_roots.cache_clear()
        fine = roots(p, 1e-13)
        coarse = roots(p, 1e-9)
        assert coarse == fine
        info = algebraic._ordered_roots.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        finer = roots(p, 1e-16)
        assert all(float(r.radius) <= 1e-16 for r in finer)
        assert algebraic._ordered_roots.cache_info().misses == 2

    def test_bounded(self):
        cache = algebraic._ordered_roots
        for k in range(cache.cache_info().maxsize + 40):
            roots(IntPolynomial((-k, 1)), 1e-12)
        assert cache.cache_info().currsize == cache.cache_info().maxsize


def test_closed_forms_bypass_general_solvers(monkeypatch):
    """Radicals, roots of unity and sign-clean scalings never reach the
    general eigenvalue or mpmath solvers."""
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("general root solver called")

    monkeypatch.setattr(np, "roots", forbidden)
    monkeypatch.setattr(mp, "polyroots", forbidden)
    algebraic._ordered_roots.cache_clear()
    rng = random.Random(3)
    for n in range(2, 201):
        p, q = rng.sample((2, 3, 5, 7, 11, 13), 2)
        a = radical(Fraction(p, q), n)
        assert abs(weil_height(a) - math.log(max(p, q)) / n) <= 1e-12
        if n % 9 == 0:
            equidist.orbit_measure(a)
        for r in (Fraction(-1, 47**3), Fraction(47**3)):
            scale_by_rational(a, r)
    for n in range(1, 62):
        for k in range(n):
            if math.gcd(k, n) == 1:
                z = root_of_unity(n, k)
                assert weil_height(z) == 0.0
                scale_by_rational(z, Fraction(-2, 3))
        equidist.orbit_measure(root_of_unity(n))
    assert calls == []


def plain_horner(cs, x):
    """Dense Horner over every coefficient, as the certifier evaluated
    polynomials before it skipped zero coefficients."""
    acc = np.zeros_like(x) + cs[-1]
    for c in cs[-2::-1]:
        acc = acc * x + c
    return acc


def dyadic(v) -> Fraction:
    """The exact value of a float64 or an mpf."""
    if isinstance(v, mpf):
        sign, man, exp, _ = v._mpf_
        return (-1) ** sign * Fraction(man) * Fraction(2) ** exp
    return Fraction(float(v))


def exact_eval(cs, z):
    """sum cs[i] z^i as exact (re, im) Fractions, cs and z dyadic: Horner
    in Gaussian integers over one power-of-two denominator."""
    zr, zi = dyadic(z.real), dyadic(z.imag)
    fs = [dyadic(c) for c in cs]
    s = max(f.denominator for f in (zr, zi)).bit_length() - 1  # z = (a + bi) / 2^s
    t = max(f.denominator for f in fs).bit_length() - 1  # c_i = n_i / 2^t
    a, b = int(zr * 2**s), int(zi * 2**s)
    ns = [int(f * 2**t) for f in fs]
    d = len(cs) - 1
    re, im = ns[-1], 0
    for i in range(d - 1, -1, -1):
        re, im = re * a - im * b + (ns[i] << (s * (d - i))), re * b + im * a
    den = 2 ** (t + s * d)
    return Fraction(re, den), Fraction(im, den)


def horner_corpus():
    """Seeded integer polynomials of degree <= 200, constant term first:
    binomials, x^n - x - 1, Phi_n with zero coefficients, random sparse
    ones (some with zero constant term) and random dense ones."""
    rng = random.Random(20261019)
    out = [binomial(-3, n, 2) for n in (2, 3, 7, 64, 127, 200)]
    out += [binomial(1, n, 1) for n in (5, 100)]
    out += [(-1, -1) + (0,) * (n - 2) + (1,) for n in (3, 10, 61, 200)]
    out += [algebraic._cyclotomic(n) for n in (8, 9, 12, 15, 20, 105, 256)]
    for _ in range(12):
        d = rng.randint(2, 200)
        cs = [0] * (d + 1)
        for i in rng.sample(range(d), rng.randint(1, 6)):
            cs[i] = rng.randint(-(2**20), 2**20) or 1
        cs[-1] = rng.randint(1, 2**20)
        out.append(tuple(cs))
    for _ in range(6):
        d = rng.randint(2, 200)
        out.append(tuple(rng.choice((-1, 1)) * rng.randint(1, 2**20) for _ in range(d + 1)))
    return out


class TestGapHorner:
    """_horner skips zero coefficients by powers of x; the rounding majorant
    of _newton_bound still covers it, and dense polynomials keep every bit."""

    @staticmethod
    def points(rng, k=4):
        # |z| <= 2^(5/2), the root bound of the rescaled polynomials
        return [cmath.rect(rng.uniform(0, 2**2.5), rng.uniform(-math.pi, math.pi)) for _ in range(k)]

    def check(self, cs, q, z, u):
        got = algebraic._horner(q, z)
        d = len(cs) - 1
        for w, x in zip(got.tolist(), z.tolist()):
            re, im = exact_eval(q, x)
            err = math.hypot(float(dyadic(w.real) - re), float(dyadic(w.imag) - im))
            ax = abs(complex(x))
            majorant = 10 * d * float(u) * sum(abs(c) * ax**i for i, c in enumerate(cs))
            assert err <= majorant, (cs, x, err, majorant)

    def test_error_within_majorant(self):
        rng = random.Random(5)
        for cs in horner_corpus():
            pts = self.points(rng)
            self.check(cs, np.array([float(c) for c in cs]), np.array(pts), 2.0**-53)
            for dps in (40, 80):
                with mp.workdps(dps):
                    q = np.array([mpf(c) for c in cs], dtype=object)
                    z = np.array([mpc(x) + mpc(rng.random(), rng.random()) * 2**-60 for x in pts],
                                 dtype=object)
                    self.check(cs, q, z, mpf(2) ** (1 - mp.prec))

    def test_power_product_count(self):
        # floor(log2 g) + popcount(g) - 1 products, at most g - 1
        class Counted(float):
            products = 0

            def __mul__(self, other):
                Counted.products += 1
                return Counted(float(self) * float(other))

        for g in range(1, 300):
            Counted.products = 0
            assert algebraic._power(Counted(1.0), g) == 1.0
            want = g.bit_length() - 1 + bin(g).count("1") - 1
            assert Counted.products == want <= g - 1, g

    @staticmethod
    def columns(t):
        return tuple(c.tolist() for c in (t.re, t.im, t.rad, t.real)) + (t.k, t.lex, t.mult, t.exact)

    def test_dense_tables_keep_every_bit(self, monkeypatch):
        rng = random.Random(8)
        corpus = [algebraic._cyclotomic(p) for p in (3, 5, 7, 11, 13, 17, 19, 23)]
        corpus += [rand_poly(rng, max_deg=12, span=50).coeffs for _ in range(10)]
        for cs in corpus:
            if 0 in cs:
                continue
            for eps in (2.0**-30, 1e-40):
                got = algebraic._certify(cs, eps)
                with monkeypatch.context() as m:
                    m.setattr(algebraic, "_horner", plain_horner)
                    want = algebraic._certify(cs, eps)
                assert got.re.dtype == want.re.dtype and self.columns(got) == self.columns(want), cs

    def test_sparse_tables_hold_the_reference_roots(self, monkeypatch):
        # same order, realness and lex; centres within both radii
        cases = [(binomial(-3, n, 2), 1e-12) for n in range(2, 201)]
        cases += [(algebraic._cyclotomic(n), 1e-9) for n in range(1, 62)]
        for cs, eps in cases:
            eps = algebraic._eps_bucket(eps)
            got = algebraic._certify(cs, eps)
            with monkeypatch.context() as m:
                m.setattr(algebraic, "_horner", plain_horner)
                want = algebraic._certify(cs, eps)
            assert got.lex == want.lex, cs
            for a, b in zip(algebraic._roots_of(got), algebraic._roots_of(want), strict=True):
                assert a.is_real == b.is_real, cs
                assert abs(a.center - b.center) <= a.radius + b.radius, cs
