"""Tests for orbit measures, discrepancy, Weyl sums, radial deviation.

Frozen constants below were computed by an independent 60-digit script
(mpmath polyroots on the descending coefficient list, then the textbook
formulas); the package path must reproduce them through certified
enclosures.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import mp, mpf

from smallpoints import algebraic, equidist
from smallpoints.algebraic import (
    AlgebraicNumber, IntPolynomial, _abs_interval, _angle_unit, _mp_rows, _root_table, mahler_log,
    radical, root_of_unity,
)
from smallpoints.equidist import (
    EquidistError,
    _measure_at,
    bilu_report,
    orbit_measure,
    radial_deviation,
    star_discrepancy,
    weyl_sum,
)

LEHMER = AlgebraicNumber.from_minpoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
                                      index=0)

# |N^-1 sum exp(2 pi i k u)| over the ten Lehmer conjugates
LEHMER_WEYL = {
    1: 0.1026417949186959859,
    2: 0.0893630295212915771,
    3: 0.1758032571782774570,
    4: 0.0563206666755171634,
    5: 0.3304005679270784278,
}
LEHMER_DSTAR = 0.2  # two real positive conjugates pile up at angle 0
LEHMER_MAHLER = 0.1623576120077381394  # one conjugate outside the circle


def nth_root_of_2(n):
    return radical(Fraction(2), n)


class TestOrbitMeasure:
    def test_rational_angles(self):
        mu = orbit_measure(AlgebraicNumber.from_rational(Fraction(3, 2)))
        assert mu.angles == (0.0,)
        assert mu.radii[0] == pytest.approx(1.5, abs=1e-12)
        mu = orbit_measure(AlgebraicNumber.from_rational(Fraction(-2)))
        assert mu.angles == (0.5,)

    def test_zero_rejected(self):
        with pytest.raises(EquidistError):
            orbit_measure(AlgebraicNumber.from_rational(Fraction(0)))
        with pytest.raises(EquidistError):
            orbit_measure(LEHMER, eps=0.0)

    def test_real_conjugates_have_exact_angles(self):
        mu = orbit_measure(radical(Fraction(2), 2))  # sqrt 2, -sqrt 2
        assert mu.angles == (0.0, 0.5)
        assert mu.angle_err == 0.0

    def test_conjugate_pairs_mirror(self):
        mu = orbit_measure(nth_root_of_2(5))
        for a in mu.angles:
            if a not in (0.0, 0.5):
                assert min(abs(b - (1.0 - a)) for b in mu.angles) < 1e-12

    def test_angles_sorted_and_in_range(self):
        mu = orbit_measure(LEHMER)
        assert list(mu.angles) == sorted(mu.angles)
        assert all(0.0 <= a < 1.0 for a in mu.angles)
        assert len(mu) == 10

    def test_rows_shape(self):
        mu = orbit_measure(nth_root_of_2(3))
        rows = mu.rows()
        assert [r[0] for r in rows] == [0, 1, 2]
        for _, angle, r, lr in rows:
            assert math.log(r) == pytest.approx(lr, abs=1e-12)

    def test_deterministic(self):
        a = orbit_measure(nth_root_of_2(60))
        b = orbit_measure(nth_root_of_2(60))
        assert a.angles == b.angles and a.log_radii == b.log_radii


class TestWeylSums:
    def test_lehmer_oracle(self):
        mu = orbit_measure(LEHMER)
        for k, expected in LEHMER_WEYL.items():
            assert weyl_sum(mu, k) == pytest.approx(expected, abs=1e-12), k

    def test_full_root_sets_cancel(self):
        # the n-th roots of 2 average e(k/n) almost exactly to zero
        for n in (4, 7, 12):
            mu = orbit_measure(nth_root_of_2(n))
            assert weyl_sum(mu, 1) < 1e-10, n

    def test_frequency_validation(self):
        mu = orbit_measure(nth_root_of_2(3))
        with pytest.raises(EquidistError):
            weyl_sum(mu, 0)

    def test_koksma_bound(self):
        corpus = [LEHMER, nth_root_of_2(6), root_of_unity(11),
                  AlgebraicNumber.from_rational(Fraction(5, 3))]
        for alpha in corpus:
            mu = orbit_measure(alpha)
            d = star_discrepancy(mu)
            for k in range(1, 6):
                assert weyl_sum(mu, k) <= 4 * k * d + 1e-9


class TestDiscrepancy:
    def test_lehmer_frozen(self):
        assert star_discrepancy(orbit_measure(LEHMER)) == pytest.approx(
            LEHMER_DSTAR, abs=1e-12
        )

    def test_radicals_exact(self):
        for n in (1, 2, 5, 17, 60, 200):
            mu = orbit_measure(nth_root_of_2(n))
            assert star_discrepancy(mu) == pytest.approx(1.0 / n, abs=1e-9), n

    def test_range_bounds(self):
        for alpha in (LEHMER, nth_root_of_2(9), root_of_unity(7)):
            mu = orbit_measure(alpha)
            d = star_discrepancy(mu)
            assert 1.0 / (2 * len(mu)) <= d <= 1.0

    def test_centered_set_attains_minimum(self):
        # zeta_8 primitive angles (2i-1)/8 are perfectly centered
        mu = orbit_measure(root_of_unity(8))
        assert star_discrepancy(mu) == pytest.approx(1.0 / 8, abs=1e-12)

    def test_prime_cyclotomic(self):
        for p in (3, 7, 31, 101, 199):
            mu = orbit_measure(root_of_unity(p))
            assert star_discrepancy(mu) <= 4.0 / p, p


class TestRadial:
    def test_lehmer_is_its_mahler_measure(self):
        # only one conjugate leaves the unit circle, so max |log r|
        # coincides with the Mahler measure logarithm
        mu = orbit_measure(LEHMER)
        assert radial_deviation(mu) == pytest.approx(LEHMER_MAHLER, abs=1e-12)

    def test_radicals(self):
        for n in (1, 3, 24, 200):
            mu = orbit_measure(nth_root_of_2(n))
            assert radial_deviation(mu) == pytest.approx(
                math.log(2) / n, abs=1e-9
            ), n

    def test_roots_of_unity_on_circle(self):
        for n in (4, 9, 30):
            assert radial_deviation(orbit_measure(root_of_unity(n))) < 1e-10


class TestBiluReport:
    def test_radical_family_equidistributes(self):
        report = bilu_report([nth_root_of_2(n) for n in range(1, 61)])
        assert report.discrepancy_to_zero
        assert report.radial_to_zero
        assert report.heights_to_zero
        assert report.rows[0]["degree"] == 1
        assert report.rows[-1]["discrepancy"] == pytest.approx(1 / 60, abs=1e-9)

    def test_constant_family_does_not(self):
        report = bilu_report([AlgebraicNumber.from_rational(Fraction(3))] * 12)
        assert not report.discrepancy_to_zero and not report.radial_to_zero
        assert not report.heights_to_zero

    def test_empty_rejected(self):
        with pytest.raises(EquidistError):
            bilu_report([])


class TestConjugationSymmetry:
    def test_weyl_sums_are_real(self):
        # full conjugate sets are closed under complex conjugation, so the
        # raw Weyl sum has vanishing imaginary part
        import cmath

        for alpha in (LEHMER, nth_root_of_2(7), root_of_unity(9),
                      AlgebraicNumber.from_minpoly([1, 3, 0, 1])):
            mu = orbit_measure(alpha)
            for k in (1, 2, 5):
                s = sum(cmath.exp(2j * math.pi * k * u) for u in mu.angles)
                assert abs(s.imag) <= 1e-12 * len(mu)

    def test_golden_ratio_radial(self):
        # both roots of x^2 - x - 1 sit at distance log phi from the circle
        phi = AlgebraicNumber.from_minpoly([-1, -1, 1])
        assert radial_deviation(orbit_measure(phi)) == pytest.approx(
            0.4812118250596034, abs=1e-12
        )


def _measure_at_all_rows(minpoly, eps):
    """Reference for equidist._measure_at: every row of the root table is
    measured on its own, with no conjugate pair mirrored."""
    entries = []
    for re, im, rad, real in _mp_rows(_root_table(minpoly, eps)):
        lo, hi = _abs_interval(re, im, rad)
        if not lo > 0:
            return None
        theta = _angle_unit(re, im, real)
        a_err = 0.0 if real else float(rad) / lo / (2 * math.pi)
        llo, lhi = math.log(lo), math.log(hi)
        entries.append((theta, a_err, (llo + lhi) / 2, (lhi - llo) / 2))
    entries.sort(key=lambda t: (t[0], t[2]))
    return entries


# c_d x^d + c_0 for every degree to 24, then a stride to 200 (every
# degree would take about nine times as long), with both signs of c_0/c_d
BINOMIALS = [
    IntPolynomial((s * (d % 7 + 2),) + (0,) * (d - 1) + (d % 5 + 1,))
    for d in list(range(2, 25)) + list(range(29, 201, 19))
    for s in (1, -1)
]
CYCLOTOMIC = [IntPolynomial(tuple(int(c) for c in reversed(
    sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs())))
    for n in range(1, 62)]
OTHERS = [IntPolynomial((-1, -1, 0, 0, 0, 1)), LEHMER.minpoly]


# inputs whose root tables the pairing once skipped, with the property
# that made it skip them: roots on the imaginary axis (one real-part group
# of four), repeated factors and mpf columns
# (a 1e-40 certification needs the mpmath ladder)
PAIRING = {
    "x^4+3x^2+1": (IntPolynomial((1, 0, 3, 0, 1)), None, "not lex"),
    "x^4+6x^2+1": (IntPolynomial((1, 0, 6, 0, 1)), None, "not lex"),
    "(x^2+2)^2(x^2+x+3)": (IntPolynomial((2, 0, 1)) * IntPolynomial((2, 0, 1))
                           * IntPolynomial((3, 1, 1)), None, "mult"),
    "(x^2+x+1)^3(x-2)^2": (IntPolynomial((1, 1, 1)) * IntPolynomial((1, 1, 1))
                           * IntPolynomial((1, 1, 1)) * IntPolynomial((-2, 1))
                           * IntPolynomial((-2, 1)), None, "mult"),
    "Phi_7 at 1e-40": (root_of_unity(7).minpoly, 1e-40, "mpf"),
    "radical(3, 5) at 1e-40": (radical(3, 5).minpoly, 1e-40, "mpf"),
}


class TestMirroredPairs:
    """_measure_at measures one root of each conjugate pair and mirrors it;
    the all-rows reference measures both."""

    @pytest.mark.parametrize("polys", [BINOMIALS, CYCLOTOMIC, OTHERS],
                             ids=["binomials", "cyclotomic", "others"])
    def test_matches_all_rows_reference(self, polys):
        for p in polys:
            got, ref = _measure_at(p, 1e-9), _measure_at_all_rows(p, 1e-9)
            assert len(got) == len(ref) == p.degree, p
            for (t, ae, lr, le), (t0, ae0, lr0, le0) in zip(got, ref):
                assert abs(t - t0) <= ae + ae0, p
                assert abs(lr - lr0) <= le + le0, p

    @pytest.mark.parametrize("polys", [BINOMIALS, CYCLOTOMIC, OTHERS],
                             ids=["binomials", "cyclotomic", "others"])
    def test_exact_mirror_symmetry(self, polys):
        for p in polys:
            got = [e for e in _measure_at(p, 1e-9) if e[1] > 0]  # non-real roots
            lower = sorted(e for e in got if e[0] < 0.5)
            upper = sorted((e for e in got if e[0] > 0.5), reverse=True)
            assert len(lower) == len(upper) == len(got) // 2, p
            for (t, ae, lr, le), (u, ae_u, lr_u, le_u) in zip(lower, upper):
                assert t + u == 1.0, p
                assert (ae, lr, le) == (ae_u, lr_u, le_u), p

    def test_one_modulus_per_pair(self, monkeypatch):
        # x^5 - x - 1: one real root and two conjugate pairs
        calls = _count_abs_interval(monkeypatch)
        assert len(_measure_at(IntPolynomial((-1, -1, 0, 0, 0, 1)), 1e-9)) == 5
        assert calls == [3]

    @pytest.mark.parametrize("case", sorted(PAIRING))
    def test_pairs_in_every_table(self, case, monkeypatch):
        p, fine, kind = PAIRING[case]
        try:
            if fine is not None:
                _root_table(p, fine)  # the cache now serves this mpf table
            t = _root_table(p, 1e-9)
            assert {"not lex": not t.lex, "mult": t.mult is not None,
                    "mpf": t.re.dtype == object}[kind], case
            reals = int(np.count_nonzero(t.real))
            ref = _measure_at_all_rows(p, 1e-9)
            calls = _count_abs_interval(monkeypatch)
            got = _measure_at(p, 1e-9)
            # one modulus per real row and per conjugate pair, repeated rows counted
            assert calls == [reals + (len(t.re) - reals) // 2], case
            assert len(got) == len(ref) == p.degree, case
            for (a, ae, lr, le), (a0, ae0, lr0, le0) in zip(got, ref):
                assert abs(a - a0) <= ae + ae0, case
                assert abs(lr - lr0) <= le + le0, case
            lower = sorted((e for e in got if 0 < e[0] < 0.5), key=lambda e: (e[0], e[2]))
            upper = sorted((e for e in got if e[0] > 0.5), key=lambda e: (-e[0], e[2]))
            assert len(lower) == len(upper) == (len(t.re) - reals) // 2, case
            for (a, *rest), (b, *rest_b) in zip(lower, upper):
                assert a + b == 1.0 and rest == rest_b, case
            m = mahler_log(p, 1e-12)
            monkeypatch.setattr(algebraic, "_conjugate_rows", lambda t: (
                (i, *row, False) for i, row in enumerate(_mp_rows(t))))
            m0 = mahler_log(p, 1e-12)
            assert abs(m.value - m0.value) <= m.error + m0.error, case
        finally:
            if fine is not None:
                algebraic._ordered_roots.cache_clear()  # later tests see float tables

    def test_tied_angles_take_one_pass(self, monkeypatch):
        # x^4 + 6x^2 + 1 has the roots +-i(sqrt 2 +- 1): two angles, each
        # held by two roots, which no refinement separates
        calls = []
        monkeypatch.setattr(equidist, "_measure_at",
                            lambda p, eps: calls.append(eps) or _measure_at(p, eps))
        mu = orbit_measure(AlgebraicNumber.from_minpoly((1, 0, 6, 0, 1)))
        assert calls == [1e-9]
        assert mu.angles == (0.25, 0.25, 0.75, 0.75)
        assert mu.log_radii[0] < 0 < mu.log_radii[1]


class TestStoredErrors:
    """Every stored angle and log-modulus lies within the measure's stated
    error of the exact value, float rounding included."""

    # alpha, the eps of a finer table put in the cache first, and the exact
    # orbit: angles k/n for k in ks, shifted by delta, and modulus c^(1/n)
    CASES = {
        "Phi_7 at 1e-40": (lambda: root_of_unity(7), 1e-40, 7, range(1, 7), 0, 1),
        "radical(3, 5) at 1e-40": (lambda: radical(3, 5), 1e-40, 5, range(5), 0, 3),
        "Phi_12": (lambda: root_of_unity(12, 5), None, 12, (1, 5, 7, 11), 0, 1),
        "radical(2, 5)": (lambda: radical(2, 5), None, 5, range(5), 0, 2),
        "radical(-7/3, 9)": (lambda: radical(Fraction(-7, 3), 9), None, 9, range(9),
                             Fraction(1, 2), Fraction(7, 3)),  # one angle is 1/2
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_values_within_errors(self, case):
        make, fine, n, ks, delta, c = self.CASES[case]
        alpha, c = make(), Fraction(c)
        try:
            if fine is not None:
                _root_table(alpha.minpoly, fine)
            mu = orbit_measure(alpha)
        finally:
            algebraic._ordered_roots.cache_clear()  # later tests see float tables
        assert type(mu.angle_err) is float and type(mu.log_radius_err) is float
        json.dumps([mu.angle_err, mu.log_radius_err])
        angles = sorted((Fraction(k, n) + delta) % 1 for k in ks)
        assert len(angles) == len(mu)
        with mp.workdps(50):
            log_r = mp.log(mpf(c.numerator) / c.denominator) / n
            for a, want in zip(mu.angles, angles):
                assert abs(mpf(a) - mpf(want.numerator) / want.denominator) <= mu.angle_err, case
            for lr in mu.log_radii:
                assert abs(mpf(lr) - log_r) <= mu.log_radius_err, case


def _count_abs_interval(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _abs_interval(*args)

    monkeypatch.setattr(equidist, "_abs_interval", counted)
    return calls
