"""Tests for orbit measures, discrepancy, Weyl sums, radial deviation.

Frozen constants below were computed by an independent 60-digit script
(mpmath polyroots on the descending coefficient list, then the textbook
formulas); the package path must reproduce them through certified
enclosures.
"""

import math
from fractions import Fraction

import pytest
import sympy

from smallpoints import equidist
from smallpoints.algebraic import (
    AlgebraicNumber, IntPolynomial, _abs_interval, _angle_unit, _mp_rows, _root_table, radical,
    root_of_unity,
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
    for re, im, rad, real in _mp_rows(_root_table(minpoly, eps, True)):
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

    def test_imaginary_axis_falls_back_to_every_row(self, monkeypatch):
        # x^4 + 3x^2 + 1 is irreducible, with the roots +-i phi and +-i/phi:
        # one real-part group of four, so the order is not lexicographic
        p = IntPolynomial((1, 0, 3, 0, 1))
        assert not _root_table(p, 1e-9, True).lex
        ref = _measure_at_all_rows(p, 1e-9)
        calls = _count_abs_interval(monkeypatch)
        assert _measure_at(p, 1e-9) == ref
        assert calls == [4]


def _count_abs_interval(monkeypatch):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _abs_interval(*args)

    monkeypatch.setattr(equidist, "_abs_interval", counted)
    return calls
