"""Algebraic numbers over Q with certified root enclosures and Weil heights.

An algebraic number is stored as (minimal polynomial, root index): the
polynomial is primitive with positive leading coefficient and irreducible
over Q, and the index selects one root in a deterministic ordering of the
certified enclosures (sorted by real part, ties by imaginary part) that
the polynomial's first certified pass fixes for every eps.

Heights are absolute logarithmic Weil heights computed through the Mahler
measure of the minimal polynomial:

    h(a) = (1/d) * ( log|c_d| + sum_i log+ |root_i| )

Root enclosures are disks (center, radius) certified to contain exactly one
root: the radius bound is the classical  d * |p(z)/p'(z)|  (distance from z
to the nearest root of p is at most that), evaluated with a rigorous
floating-point error majorant, and pairwise disjointness of the d disks
pigeonholes one root per disk. One certifier serves every polynomial: it
rescales x = 2^k y so that the roots and coefficients lie in float64 range,
seeds in float64 (closed forms for binomials and Phi_n, else np.roots),
and certifies in float64, then polishes the same centres in mpmath at
doubling precision only when float64 cannot reach eps or separate the
disks. Certified float64 disks also prove the polynomial squarefree. The
Newton-and-bound step and the disk geometry are written once for both
precisions. Polynomials are evaluated by Horner's rule over their nonzero
coefficients, a run of zero coefficients bridged by one power of x from
repeated squaring, so a binomial of degree d costs O(log d) products; the
rounding majorant of dense Horner still bounds the result (see
_newton_bound).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from mpmath import mp, mpc, mpf

Rational = Union[int, Fraction]

__all__ = [
    "AlgebraicError",
    "ReducibleMinpolyError",
    "RootRefinementError",
    "IntPolynomial",
    "CertifiedRoot",
    "AlgebraicNumber",
    "TorusElement",
    "MahlerLog",
    "roots",
    "mahler_log",
    "weil_height",
    "torus_power",
    "torus_height",
    "scale_by_rational",
    "conjugates",
    "is_root_of_unity",
    "root_of_unity",
    "radical",
]


class _ContextError(ValueError):
    """An error whose keyword arguments, the values that reproduce it, are
    kept as attributes and appended to the message as "; name=value"."""

    def __init__(self, reason: str = "", **context):
        self.__dict__.update(context)
        super().__init__(reason + "".join(f"; {k}={v}" for k, v in context.items()))


class AlgebraicError(_ContextError):
    """Invalid algebraic-number construction or computation."""


class ReducibleMinpolyError(AlgebraicError):
    """Candidate minimal polynomial factors over Q.

    Carries one nontrivial factor as evidence.
    """

    def __init__(self, poly, factor):
        self.poly = poly
        self.factor = factor
        super().__init__(f"polynomial {poly} is reducible; factor {factor}")


class RootRefinementError(AlgebraicError):
    """Certification did not reach the requested bound.

    Carries what reproduces the failure: the polynomial, the requested
    eps (a root radius, or the error asked of mahler_log), what was
    achieved and the last precision tried, in bits. reason, if given,
    replaces the radius wording of the message.
    """

    def __init__(self, poly, eps: float, achieved_radius: float, prec: int,
                 reason: Optional[str] = None, **context):
        self.poly = poly
        self.eps = eps
        self.achieved_radius = achieved_radius
        self.prec = prec
        super().__init__(
            reason or f"could not certify {poly} to radius {eps:.3e}: achieved "
            f"{achieved_radius:.3e} at {prec}-bit precision", **context
        )


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, constant term first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs or all(c == 0 for c in cs):
            raise AlgebraicError("zero polynomial rejected")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0]

    def __call__(self, x):
        """Horner evaluation; works for Fraction, mpf, mpc, interval types."""
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPolynomial":
        """Canonical form: content 1, positive leading coefficient."""
        g = self.content()
        sign = -1 if self.leading < 0 else 1
        return IntPolynomial(tuple(c * sign // g for c in self.coeffs))

    @property
    def is_canonical(self) -> bool:
        return self.leading > 0 and self.content() == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def divides(self, other: "IntPolynomial") -> bool:
        """Exact divisibility over Q (degrees compared, Fraction division)."""
        if other.degree < self.degree:
            return False
        rem = [Fraction(c) for c in other.coeffs]
        div = [Fraction(c) for c in self.coeffs]
        lead = div[-1]
        for k in range(len(rem) - len(div), -1, -1):
            q = rem[k + len(div) - 1] / lead
            if q:
                for i, dc in enumerate(div):
                    rem[k + i] -= q * dc
        return all(c == 0 for c in rem[: self.degree])

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


def _irreducible_or_factor(poly: IntPolynomial):
    """Return None if irreducible over Q, else a nontrivial factor."""
    if poly.degree == 1:
        return None
    import sympy  # general factoring only: sympy stays off the import path
    _, factors = sympy.Poly(poly.coeffs[::-1], sympy.Symbol("x")).factor_list()
    pieces = [f for f, _ in factors if f.degree() >= 1]
    if len(pieces) == 1 and factors[0][1] == 1 and pieces[0].degree() == poly.degree:
        return None
    f = pieces[0]
    return IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs())))


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------


def _divide_monic(num, den):
    """Quotient of an exact division by a monic polynomial (constant term first)."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for i in range(dd):
                num[k + i] -= c * den[i]
    return quot


@lru_cache(maxsize=1024)
def _cyclotomic(n: int) -> tuple:
    """Coefficients of Phi_n, constant term first.

    x^n - 1 is the product of Phi_d over the divisors d of n, so dividing it
    exactly by Phi_d for every proper divisor leaves Phi_n."""
    quot = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            quot = _divide_monic(quot, _cyclotomic(d))
    return tuple(quot)


@lru_cache(maxsize=256)
def _totient_preimages(d: int) -> tuple:
    """Every n with phi(n) = d, in no particular order.

    phi(n) is the product of p^(k-1) (p - 1) over the prime powers p^k
    exactly dividing n, so each prime of n has p - 1 dividing d."""
    primes = [
        q + 1
        for q in range(1, d + 1)
        if d % q == 0 and all((q + 1) % f for f in range(2, math.isqrt(q + 1) + 1))
    ]
    out = []

    def walk(start, n, rest):
        if rest == 1:
            out.append(n)
        for j in range(start, len(primes)):
            p = primes[j]
            if rest % (p - 1):
                continue
            n_p, rest_p = n * p, rest // (p - 1)
            while True:
                walk(j + 1, n_p, rest_p)
                if rest_p % p:
                    break
                n_p, rest_p = n_p * p, rest_p // p

    walk(0, 1, d)
    return tuple(out)


def _cyclotomic_order(coeffs: tuple) -> Optional[int]:
    """n if coeffs (constant term first) are exactly those of Phi_n, else None."""
    if coeffs[-1] != 1 or abs(coeffs[0]) != 1:
        return None
    for n in _totient_preimages(len(coeffs) - 1):
        if _cyclotomic(n) == coeffs:
            return n
    return None


# ---------------------------------------------------------------------------
# certified roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedRoot:
    """Disk (re + i*im, radius) containing exactly one root.

    Certified-real roots carry im == 0 exactly; `exact` is set for roots of
    linear factors, where the value is a known rational. The root cache
    holds root tables, not these objects: roots() and
    AlgebraicNumber.enclosure() build them on demand, with equal values on
    every call.
    """

    re: mpf
    im: mpf
    radius: mpf
    is_real: bool
    multiplicity: int = 1
    exact: Optional[Fraction] = None

    @property
    def center(self) -> mpc:
        return mpc(self.re, self.im)


def _abs_interval(re, im, radius):
    """(lo, hi) bounds on the modulus of the root in the disk (re + i im, radius)."""
    with mp.workdps(30):
        m = mp.sqrt(re * re + im * im)
        pad = abs(m) * mpf(2) ** (-90) + mpf(2) ** (-300)
        lo = m - radius - pad
        hi = m + radius + pad
    return (max(mpf(0), lo), hi)


def _angle_unit(re, im, is_real) -> float:
    """Angle of re + i im in [0, 1) turns; exactly 0 or 1/2 when is_real."""
    if is_real:
        return 0.0 if re >= 0 else 0.5
    with mp.workdps(30):
        a = mp.atan2(im, re) / (2 * mp.pi)
        if a < 0:
            a += 1
    return float(a)


class _RootTable(NamedTuple):
    """Certified roots of one polynomial in canonical order: disk i has
    centre (re[i] + i im[i]) 2^k and radius rad[i] 2^k, the order being
    the reference pass's for a squarefree polynomial (see _certify).

    The columns are float64 after a float64 certification, the scale kept
    apart so that no ldexp overflows or rounds, else mpf objects. real flags
    the certified-real roots (im exactly 0), lex is as in _geometry; mult
    and exact, unless None, hold each root's multiplicity and exact value."""

    re: np.ndarray
    im: np.ndarray
    rad: np.ndarray
    k: int
    real: np.ndarray
    lex: bool
    mult: Optional[tuple] = None
    exact: Optional[tuple] = None


def _mp_rows(t: _RootTable, rows=slice(None)):
    """(re, im, radius, is_real) of the given rows of t, as exact mpf in x
    (mp.ldexp converts a float without rounding)."""
    cols = ([mp.ldexp(v, t.k) for v in c[rows].tolist()] for c in (t.re, t.im, t.rad))
    return zip(*cols, t.real[rows].tolist())


def _conjugate_rows(t: _RootTable):
    """(i, re, im, radius, is_real, paired) for the real rows of t and each
    row with im > 0, as in _mp_rows; paired marks the latter.

    _geometry certified that a non-real disk misses its own mirror image,
    so the sign of im is certain, and that the mirror meets exactly one
    other disk, which holds the conjugate root. So the rows with im > 0 and
    im < 0 match one to one in every table, repeated and mpf rows included."""
    rows = np.flatnonzero(t.real | (t.im > 0))
    return ((i, *row, not row[3]) for i, row in zip(rows.tolist(), _mp_rows(t, rows)))


def _roots_of(t: _RootTable, rows=slice(None)) -> list:
    """CertifiedRoot objects for the rows (a slice) of t."""
    return [
        CertifiedRoot(*row, 1 if t.mult is None else t.mult[i],
                      None if t.exact is None else t.exact[i])
        for i, row in zip(range(len(t.re))[rows], _mp_rows(t, rows))
    ]


def _table_of(rs, lex: bool) -> _RootTable:
    """The mpf table (k = 0) holding the CertifiedRoot list rs."""
    cols = (np.array(c, dtype=object) for c in zip(*((r.re, r.im, r.radius) for r in rs)))
    return _RootTable(*cols, 0, np.array([r.is_real for r in rs]), lex,
                      tuple(r.multiplicity for r in rs), tuple(r.exact for r in rs))


_MAX_DPS = 2560  # last rung of the mpmath ladder 40, 80, ..., 2560 digits


def _closed_form_seeds(coeffs) -> Optional[tuple]:
    """(log rho, unit): the roots rho * unit of a binomial or cyclotomic
    polynomial, unit a complex128 array, else None.

    c_d x^d + c_0 has the roots rho * exp(i pi (2k + delta) / d) with
    rho = |c_0/c_d|^(1/d) and delta = 1 exactly when c_0/c_d > 0; Phi_n,
    recognised by exact comparison, has the roots exp(2 pi i k / n) with
    gcd(k, n) = 1. rho stays a logarithm until the caller rescales it, so
    no modulus leaves float64 range. The seeds are certified like any other.
    """
    d = len(coeffs) - 1
    if d >= 2 and coeffs[0] and not any(coeffs[1:-1]):
        log_rho = (math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / d
        delta = 1 if (coeffs[0] > 0) == (coeffs[-1] > 0) else 0
        return log_rho, np.exp(1j * np.pi * (2 * np.arange(d) + delta) / d)
    n = _cyclotomic_order(coeffs)
    if n is None:
        return None
    ks = np.array([k for k in range(n) if math.gcd(k, n) == 1])
    return 0.0, np.exp(2j * np.pi * ks / n)


def _root_scale(coeffs):
    """(k, j) for the rescaled polynomial q(y) = 2^-j p(2^k y).

    2^k is max |c_(d-i)/c_d|^(1/i) rounded to a power of two from bit
    lengths, so by Fujiwara's bound (twice that maximum) q's roots have
    modulus below 2^(5/2), and 2^-j brings every coefficient below 1 with
    the largest at least 1/2. Powers of two scale exactly, in float64 as
    in mpmath."""
    d = len(coeffs) - 1
    top = abs(coeffs[-1]).bit_length()
    k = max(
        round((abs(c).bit_length() - top) / (d - i)) for i, c in enumerate(coeffs[:-1]) if c
    )
    j = max(abs(c).bit_length() + k * i for i, c in enumerate(coeffs) if c)
    return k, j


def _power(x, g):
    """x^g for g >= 1 by repeated squaring: floor(log2 g) + popcount(g) - 1
    products, at most g - 1, and x itself for g = 1."""
    out = None
    while True:
        if g & 1:
            out = x if out is None else out * x
        g >>= 1
        if not g:
            return out
        x = x * x


def _horner(cs, x):
    """sum cs[i] x^i (cs constant term first, cs[-1] nonzero) by Horner's
    rule over the nonzero coefficients: a gap of g positions between two of
    them is one product with x^g (see _power), and a zero constant term
    ends with one last power. A gap of 1 is the plain step acc * x + c."""
    nz = np.flatnonzero(cs).tolist()
    acc = np.zeros_like(x) + cs[nz[-1]]
    for hi, lo in zip(nz[:0:-1], nz[-2::-1]):
        acc = acc * _power(x, hi - lo) + cs[lo]
    return acc * _power(x, nz[0]) if nz[0] else acc


def _newton_bound(q, z, u):
    """Three Newton steps for q at the centres z, then certified radii.

    q holds the coefficients (constant term first) rounded to the working
    precision, whose unit roundoff is u: float64 with complex128 centres,
    or mpf with mpc centres. Every root of q lies within d |q(z)/q'(z)| of
    z; |q(z)| is bounded above and |q'(z)| below by the rounding majorant
    10 d u * sum |q_i| |z|^i. It covers complex Horner, at most
    (2 sqrt 2 + 1) d u, plus the rounding of the coefficients to the
    working precision, at most 2u (u, and u more for i q_i), for every
    d >= 1; u * 1e-290 covers the gradual underflow of float64. The radius
    is inf where |q'(z)| is not certifiably nonzero.

    _horner skips zero coefficients, and the majorant still holds: a gap
    of g positions costs floor(log2 g) + popcount(g) - 1 <= g - 1 rounded
    products to build z^g and one to apply it, so each term's z^i passes
    through at most i rounded products, as in dense Horner, and through at
    most as many rounded additions. That holds in float64 and at every
    mpmath precision u = 2^(1 - prec) (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 5.1; Brent, Percival and Zimmermann, Math.
    Comp. 76 (2007), for the complex product bound)."""
    d = len(q) - 1
    dq = q[1:] * np.arange(1, d + 1, dtype=q.dtype)
    for _ in range(3):
        pv, dv = _horner(q, z), _horner(dq, z)
        z = z - np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0)
    pv, dv = _horner(q, z), _horner(dq, z)
    az = np.abs(z)
    grow = 10 * d * u
    ep = grow * _horner(np.abs(q), az) + u * 1e-290
    den = np.abs(dv) - (grow * _horner(np.abs(dq), az) + u * 1e-290)
    ok = den > 0
    rad = np.where(ok, d * (np.abs(pv) + ep) / np.where(ok, den, 1) * (1 + 1e-12), np.inf)
    return z, rad


def _geometry(z, rad):
    """Certify the disks (z, rad) disjoint, and their realness and order.

    z holds complex128 or mpc centres, rad float64 or mpf radii. Every test
    compares a distance computed from differences of centres, so its
    rounding is relative to that distance, and the one-sided margin treats
    a pair within relative 1e-9 of touching as overlapping: that can only
    force refinement, never a wrong certificate. Returns (real, order, lex)
    or None if ambiguous: real flags the disks certified to hold a real
    root, and lex is set when every group of roots with overlapping real
    parts is one root or a conjugate pair, so that order is the
    lexicographic (re, im) order of the roots.
    """
    n = len(z)
    rr = (rad[:, None] + rad[None, :]) * (1 + 1e-9)
    dz = z[:, None] - z[None, :]
    # the mirror image of a disk meets exactly one disk: its own if the root
    # is real, else the conjugate root's
    mirror = np.abs(z[:, None] - np.conj(z)[None, :]) <= rr
    if np.any(np.count_nonzero(mirror, axis=1) != 1):
        return None
    pair = np.argmax(mirror, axis=1)
    real = pair == np.arange(n)
    # group roots whose real parts are not certifiably separated (dz +
    # conj(dz) is twice the real part of dz, exactly); inside a group the
    # imaginary parts must be, so this also certifies the disks disjoint
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*(a.tolist() for a in np.nonzero(np.abs(dz + np.conj(dz)) <= 2 * rr))):
        if i < j:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # the same differences and sums as dz and rr, on Python scalars
    zl, radl, pair = z.tolist(), rad.tolist(), pair.tolist()
    for members in groups.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if abs((zl[i] - zl[j]).imag) <= (radl[i] + radl[j]) * (1 + 1e-9):
                    return None
    gkey = {g: min(zl[i].real for i in members) for g, members in groups.items()}
    order = sorted(range(n), key=lambda i: (gkey[find(i)], zl[i].imag, zl[i].real))
    lex = all(len(m) == 1 or (len(m) == 2 and pair[m[0]] == m[1]) for m in groups.values())
    return real, order, lex


def _table(z, rad, geom, k) -> _RootTable:
    """The root table of the disks (z, rad) in y = x / 2^k, with the
    realness, order and lex of geom as _geometry returns them.

    The columns are float64 for complex128 centres, mpf at the current
    precision for mpc ones. Certified-real roots are kept exactly real,
    their radius grown by |im| and rounded up."""
    real, order, lex = geom
    real, zo, r = real[order], z[order], rad[order] * (1 + 1e-12)
    if zo.dtype == object:
        re, im = (np.array(c, dtype=object) for c in zip(*((w.real, w.imag) for w in zo)))
        up = [mp.fadd(a, abs(y), rounding="u") for a, y in zip(r, im)]
    else:
        re, im = zo.real.copy(), zo.imag.copy()
        s = r + np.abs(im)
        # TwoSum: s + err is r + |im| exactly, so err > 0 means s fell short
        bp = s - r
        up = np.where((r - (s - bp)) + (np.abs(im) - bp) > 0, np.nextafter(s, np.inf), s)
    return _RootTable(re, np.where(real, 0, im), np.where(real, up, r), k, real, lex)


def _eps_bucket(eps: float) -> float:
    if eps <= 0:
        raise AlgebraicError("eps must be positive")
    return 2.0 ** math.floor(math.log2(eps))


def _certify(coeffs: tuple, eps: float) -> _RootTable:
    """The root table of coeffs: certified roots in canonical order, each
    repeated by its multiplicity.

    The work is done on q(y) = 2^-j p(2^k y) (see _root_scale), whose roots
    and coefficients lie in float64 range. A float64 pass polishes and
    bounds the closed-form or np.roots seeds. If _geometry certifies its d
    disks, each holds a distinct root, so p is squarefree, and this pass is
    the reference whose realness, order and lex the table keeps at every
    eps. Else sympy's sqf_list splits p: repeated factors go to _merge, and
    a squarefree p takes the first mpmath rung that _geometry certifies.
    While radii exceed eps, mpmath rungs of doubling precision polish the
    same centres; a refined disk that meets another root's reference disk
    raises rather than renumber the roots."""
    poly = IntPolynomial(coeffs)
    d = poly.degree
    if d == 1:
        c0, c1 = poly.coeffs
        val = Fraction(-c0, c1)
        with mp.workdps(40):
            re = mpf(val.numerator) / mpf(val.denominator)
            rad = abs(re) * mpf(2) ** (-100) + mpf(2) ** (-200)
        return _table_of([CertifiedRoot(re, mpf(0), rad, True, exact=val)], True)

    k, j = _root_scale(poly.coeffs)
    eps_y = mp.ldexp(mpf(eps), -k)
    exps = [k * i - j for i in range(d + 1)]
    q = np.array([float(c << e) if e >= 0 else c / (1 << -e) for c, e in zip(poly.coeffs, exps)])
    seeds = _closed_form_seeds(poly.coeffs)
    if seeds is not None:
        z = math.exp(seeds[0] - k * math.log(2)) * seeds[1]
    else:
        try:
            z = np.roots(q[::-1])
        except np.linalg.LinAlgError as exc:
            raise RootRefinementError(poly, eps, math.inf, 53) from exc
    z, rad = _newton_bound(q, z, 2.0**-53)
    geom, (zr, rr) = _geometry(z, rad), (z, rad)
    if geom is None:
        import sympy  # general factoring only: sympy stays off the import path
        _, factors = sympy.Poly(poly.coeffs[::-1], sympy.Symbol("x")).sqf_list()
        pieces = [
            (IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs()))), int(m))
            for f, m in factors
            if f.degree() >= 1
        ]
        if len(pieces) > 1 or pieces[0][1] > 1:
            return _merge(poly, pieces, eps)
    elif np.all(rad <= float(eps_y)):
        return _table(z, rad, geom, k)
    prec, dps = 53, 40
    while dps <= _MAX_DPS:
        with mp.workdps(dps):
            prec = mp.prec
            qm = np.array([mp.ldexp(mpf(c), e) for c, e in zip(poly.coeffs, exps)], dtype=object)
            zm = np.array([mpc(w.real, w.imag) for w in z], dtype=object)
            z, rad = _newton_bound(qm, zm, mpf(2) ** (1 - prec))
            if geom is None:
                geom, (zr, rr) = _geometry(z, rad), (z, rad)
            if geom is not None and np.all(rad <= eps_y):
                # disk i may meet no reference disk but its own, with
                # _geometry's margin
                meets = np.abs(z[:, None] - zr[None, :]) <= (rad[:, None] + rr[None, :]) * (1 + 1e-9)
                if np.count_nonzero(meets) > np.count_nonzero(meets.diagonal()):
                    raise RootRefinementError(poly, eps, float(mp.ldexp(max(rad), k)), prec,
                                              detail="a refined disk left its root")
                return _table(z, rad, geom, k)
        dps *= 2
    raise RootRefinementError(poly, eps, float(mp.ldexp(max(rad), k)), prec)


def _merge(poly: IntPolynomial, pieces: list, eps: float) -> _RootTable:
    """The table of poly from its square-free pieces (piece, multiplicity),
    ordered at eps. Cross-factor disks are disjoint mathematically; refine
    until visibly so."""
    for tries in range(9):
        finer = eps / 16**tries
        rs = [
            replace(r, multiplicity=mult)
            for piece, mult in pieces
            for r in _roots_of(_certify(piece.coeffs, finer))
        ]
        # centres at a precision that holds every one exactly
        with mp.workprec(max([mp.prec] + [x.bc for r in rs for x in (r.re, r.im)])):
            geom = _geometry(
                np.array([r.center for r in rs], dtype=object),
                np.array([r.radius for r in rs], dtype=object),
            )
        if geom is not None:
            break
    else:
        raise RootRefinementError(poly, finer, max(float(r.radius) for r in rs), mp.prec)
    _, order, lex = geom
    rs = [rs[i] for i in order]
    return _table_of([r for r in rs for _ in range(r.multiplicity)], lex)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _FinestRootCache:
    """_certify memoised with one entry per coefficient tuple.

    The entry keeps the root table of the finest certification made so
    far (float64 columns unless an mpmath rung was needed): it serves every
    request at its eps or coarser, and a finer request replaces it, so a
    stricter request never gets a looser enclosure. A squarefree
    polynomial's order is its reference pass's (see _certify), so the
    replacement lists the same roots in the same order. Least recently
    used entries are evicted past maxsize."""

    def __init__(self, maxsize: int):
        self._maxsize = maxsize
        self._entries = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, coeffs: tuple, eps: float):
        entry = self._entries.get(coeffs)
        if entry is not None and entry[0] <= eps:
            self._hits += 1
            self._entries.move_to_end(coeffs)
            return entry[1]
        self._misses += 1
        value = _certify(coeffs, eps)
        self._entries[coeffs] = (eps, value)
        self._entries.move_to_end(coeffs)
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self):
        self._entries.clear()
        self._hits = self._misses = 0


_ordered_roots = _FinestRootCache(maxsize=512)


def _root_table(p: IntPolynomial, eps: float) -> _RootTable:
    """The cached root table of p, certified to radius eps or finer."""
    return _ordered_roots(p.coeffs, _eps_bucket(eps))


def roots(p: IntPolynomial, eps: float = 1e-12):
    """Certified enclosures of all roots of p, with multiplicity.

    Returns degree-many disks of radius <= eps in the canonical order; for
    squarefree p the disks are pairwise disjoint. The canonical order is
    lexicographic in (re, im): roots whose real parts are certified apart
    sort by real part, and roots whose real-part enclosures overlap, such
    as a complex-conjugate pair (equal real parts), sort by imaginary part.
    For squarefree p the first certified pass fixes the order, so index i
    names the same root at every eps and in any call order; p with
    repeated factors is ordered at eps. Scaling by a rational r keeps this
    order for r > 0 and reverses it for r < 0, so r*a keeps a's root index
    i, or takes d-1-i (see scale_by_rational). Binomials c_d x^d + c_0 and
    cyclotomic polynomials are seeded from their closed-form roots, other
    polynomials from np.roots, always on p rescaled by a power of two into
    float64 range; every seed is certified by the same d*|p/p'| disk bound,
    in float64 and, where that cannot reach eps or separate the disks, in
    mpmath at up to 2560 digits. Certified float64 disks prove p
    squarefree; only when they are not certified does sympy split p. The
    finest certification of each polynomial is cached, one entry per
    coefficient tuple, and serves coarser requests; the cache holds it as a
    root table (float64 centres and radii in y = x / 2^k, or mpf after an
    mpmath rung) and the CertifiedRoot list is built from it on each call.
    Raises RootRefinementError (with the polynomial, eps, achieved radius
    and last precision) if certification does not converge.
    """
    if not isinstance(p, IntPolynomial):
        p = IntPolynomial(tuple(p))
    if p.degree < 1:
        raise AlgebraicError("degree >= 1 required")
    return _roots_of(_root_table(p, eps))


# ---------------------------------------------------------------------------
# Mahler measure and Weil height
# ---------------------------------------------------------------------------


class MahlerLog(NamedTuple):
    value: float
    error: float


def _log_int(n: int) -> mpf:
    if n <= 0:
        raise AlgebraicError("positive integer required")
    return mp.log(mpf(n))


def mahler_log(p: IntPolynomial, tol: float = 1e-12) -> MahlerLog:
    """log Mahler measure log|c_d| + sum log+|root_i|, with error bound.

    The error bound holds for the value before its rounding to float,
    which comes on top. It comes from the root enclosure radii and the
    padding of the moduli; enclosures are refined until the bound is at
    most tol. RootRefinementError is raised at once when the padding alone,
    which no finer enclosure lowers, exceeds tol (the error names it
    padding_floor), and when reaching tol takes radii below 1e-290. Each
    complex-conjugate pair is bounded once, from its im > 0 disk, and
    counted twice (see _conjugate_rows). A binomial's measure is a 40-digit
    log, whose bound value * 2^-119 is the error; a tol below that raises
    at once, naming it evaluation_floor.
    """
    if not isinstance(p, IntPolynomial):
        p = IntPolynomial(tuple(p))
    if p.degree < 1:
        raise AlgebraicError("degree >= 1 required")
    if p.degree == 1 or all(c == 0 for c in p.coeffs[1:-1]):
        # binomial c_d x^d + c_0: every root has modulus |c_0/c_d|^(1/d),
        # so the measure is exactly max(|c_0|, |c_d|). Its 136-bit log is
        # within v 2^-130 (v >= log 2 unless v = 0), so v 2^-119 bounds it
        # with the rounding of v to float to spare
        with mp.workdps(40):
            v, prec = float(_log_int(max(abs(p.constant), abs(p.leading)))), mp.prec
        err = v * 2.0**-119
        if err > tol:
            raise _tol_unreached(p, tol, err, prec, evaluation_floor=f"{err:.3e}")
        return MahlerLog(v, err)
    eps = max(min(tol / (4 * p.degree), 1e-10), 1e-290)
    for _ in range(60):
        t = _root_table(p, eps)
        with mp.workdps(60):
            lo = _log_int(abs(p.leading))
            hi = lo + abs(lo) * mpf(2) ** (-120)
            floor = 0.0
            for i, re, im, rad, _, paired in _conjugate_rows(t):
                if t.exact is not None and t.exact[i] is not None:
                    q = abs(t.exact[i])
                    if q > 1:
                        lq = mp.log(mpf(q.numerator) / q.denominator)
                        lo += lq * (1 - mpf(2) ** (-120))
                        hi += lq * (1 + mpf(2) ** (-120))
                    continue
                # a conjugate pair shares its modulus, so its row counts twice
                w = 2 if paired else 1
                alo, ahi = _abs_interval(re, im, rad)
                if ahi > 1:
                    hi += w * mp.log(ahi)
                if alo > 1:
                    lo += w * mp.log(alo)
                    # at every eps the padding 2^-90 m of a modulus m > 1
                    # keeps at least 2^-92 in the error
                    floor += w * 2.0**-92
            err = float((hi - lo) / 2)
            val = float((hi + lo) / 2)
            prec = mp.prec
        if err <= tol:
            return MahlerLog(val, err)
        if floor > tol or eps / 256 < 1e-290:
            break
        eps /= 256
    raise _tol_unreached(p, tol, err, prec, padding_floor=f"{floor:.3e}")


def _tol_unreached(p, tol, err, prec, **floor) -> RootRefinementError:
    return RootRefinementError(
        p, tol, err, prec,
        f"could not bound log M({p}) within {tol:.3e}: achieved error {err:.3e} "
        f"summing at {prec}-bit precision", **floor,
    )


# ---------------------------------------------------------------------------
# algebraic numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """Root number `index` (canonical order) of an irreducible minpoly."""

    minpoly: IntPolynomial
    index: int

    def __post_init__(self):
        if not (0 <= self.index < self.minpoly.degree):
            raise AlgebraicError("root_index out of range")

    @classmethod
    def from_rational(cls, r: Rational) -> "AlgebraicNumber":
        r = Fraction(r)
        poly = IntPolynomial((-r.numerator, r.denominator)).primitive()
        return cls(poly, 0)

    @classmethod
    def from_minpoly(
        cls,
        coeffs: Sequence[int],
        index: Optional[int] = None,
        approx: Optional[complex] = None,
    ) -> "AlgebraicNumber":
        poly = IntPolynomial(tuple(coeffs))
        if poly.degree < 1:
            raise AlgebraicError("minimal polynomial must have degree >= 1")
        poly = poly.primitive()
        factor = _irreducible_or_factor(poly)
        if factor is not None:
            raise ReducibleMinpolyError(poly, factor)
        if index is None:
            index = 0 if approx is None else _index_near(poly, complex(approx))
        return cls(poly, index)

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise AlgebraicError("not a rational number")
        return Fraction(-self.minpoly.constant, self.minpoly.leading)

    def enclosure(self, eps: float = 1e-12) -> CertifiedRoot:
        i = self.index  # a one-row slice: no fancy indexing on the hot path
        return _roots_of(_root_table(self.minpoly, eps), slice(i, i + 1))[0]

    def approx(self, eps: float = 1e-12) -> complex:
        r = self.enclosure(eps)
        return complex(float(r.re), float(r.im))

    def __str__(self):
        if self.is_rational:
            return str(self.as_rational())
        return f"root#{self.index} of {self.minpoly}"


def _index_near(poly: IntPolynomial, approx: complex) -> int:
    # coarse enclosures are enough to pick a root; disks are disjoint. The
    # distances are taken in y = x / 2^k: scaling by 2^k is exact, so they
    # order the roots as distances in x would
    t = _root_table(poly, 1e-9)
    try:
        a = complex(math.ldexp(approx.real, -t.k), math.ldexp(approx.imag, -t.k))
    except OverflowError:
        return 0  # approx dwarfs every root, so all distances in x round equal
    dists = [abs(complex(x, y) - a) for x, y in zip(t.re.tolist(), t.im.tolist())]
    return int(min(range(len(dists)), key=lambda i: (dists[i], i)))


def conjugates(a: AlgebraicNumber):
    """All roots of a's minimal polynomial as algebraic numbers."""
    return [AlgebraicNumber(a.minpoly, i) for i in range(a.degree)]


def weil_height(a, tol: float = 1e-12) -> float:
    """Absolute logarithmic Weil height; mahler_log(minpoly)/degree.

    Accepts AlgebraicNumber, int, or Fraction. The value before its rounding
    to float is within tol of the height; the rounding of the returned float
    comes on top of tol.
    """
    if isinstance(a, (int, Fraction)):
        a = AlgebraicNumber.from_rational(a)
    d = a.degree
    poly = a.minpoly
    if poly.leading == 1 and abs(poly.constant) == 1 and is_root_of_unity(a) is not None:
        return 0.0  # Kronecker: algebraic integers of height 0 are roots of unity
    m = mahler_log(poly, tol * d / 2)
    return m.value / d


def scale_by_rational(a: AlgebraicNumber, r: Rational) -> AlgebraicNumber:
    """The algebraic number r*a; minpoly via x -> x/r and clearing denominators.

    x -> r*x keeps the lexicographic (re, im) order of the roots for r > 0
    and reverses it for r < 0. So when the canonical order of a's roots is
    certified lexicographic, r*a is root a.index (r > 0) or d-1-a.index
    (r < 0) of the scaled polynomial, with no root computed. Otherwise the
    scaled polynomial's roots are certified and matched geometrically.
    """
    r = Fraction(r)
    if r == 0:
        raise AlgebraicError("r must be nonzero")
    if a.is_rational:
        return AlgebraicNumber.from_rational(r * a.as_rational())
    s, t = r.numerator, r.denominator
    d = a.degree
    cs = tuple(c * s ** (d - i) * t**i for i, c in enumerate(a.minpoly.coeffs))
    poly = IntPolynomial(cs).primitive()
    # same degree and the same field: irreducibility is inherited.
    # 1e-9 is the coarsest eps the package asks for, so any cached
    # certification of a's polynomial serves it
    if _root_table(a.minpoly, 1e-9).lex:
        return AlgebraicNumber(poly, a.index if r > 0 else d - 1 - a.index)
    for tries in range(30):
        eps = 1e-12 / 256**tries
        src = a.enclosure(eps)
        with mp.workdps(60):
            cre = src.re * s / t
            cim = src.im * s / t
            crad = src.radius * abs(mpf(s)) / t
            cands = []
            for i, rt in enumerate(roots(poly, eps)):
                dx = rt.re - cre
                dy = rt.im - cim
                if mp.sqrt(dx * dx + dy * dy) <= rt.radius + crad:
                    cands.append(i)
        if len(cands) == 1:
            return AlgebraicNumber(poly, cands[0])
    raise AlgebraicError("could not match the scaled root", poly=poly, r=r, eps=eps)


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------


def is_root_of_unity(a: AlgebraicNumber) -> Optional[int]:
    """Exact test; returns the order n if a^n = 1 for some n, else None.

    A root of unity of order n has minimal polynomial Phi_n, of degree
    phi(n), so the test compares a's minimal polynomial with Phi_n for each
    n with phi(n) = degree.
    """
    return _cyclotomic_order(a.minpoly.coeffs)


def root_of_unity(n: int, k: int = 1) -> AlgebraicNumber:
    """The primitive n-th root of unity exp(2*pi*i*k/n); gcd(k, n) must be 1."""
    if n < 1:
        raise AlgebraicError("order must be >= 1")
    k %= n
    if math.gcd(k, n) != 1 and n > 1:
        raise AlgebraicError("k must be coprime to n for a primitive root")
    poly = IntPolynomial(_cyclotomic(n))
    if n == 1:
        return AlgebraicNumber(poly, 0)
    with mp.workdps(30):
        target = complex(mp.cos(2 * mp.pi * k / n), mp.sin(2 * mp.pi * k / n))
    return AlgebraicNumber(poly, _index_near(poly, target))


def radical(r: Rational, m: int) -> AlgebraicNumber:
    """The real m-th root of the rational r (positive root for r > 0; r < 0
    requires odd m). By Capelli's theorem (Lang, Algebra VI 9) its minimal
    polynomial is den(c) x^(m/g) - num(c), where r = c^g and g is the largest
    divisor of m for which r is a g-th power in Q (c > 0 for r > 0, and r < 0
    has odd m, so the -4Q^4 case never arises)."""
    r = Fraction(r)
    m = int(m)
    if m < 1:
        raise AlgebraicError("m must be >= 1")
    if r == 0:
        raise AlgebraicError("radical of 0 rejected")
    if r < 0 and m % 2 == 0:
        raise AlgebraicError("even root of a negative rational is not real")
    # a failed p-th root stays failed after later roots, so one pass finds g
    c, d, p = r, m, 2
    while p <= d:
        root = _exact_root(c, p) if d % p == 0 else None
        if root is None:
            p += 1
        else:
            c, d = root, d // p
    poly = IntPolynomial((-c.numerator,) + (0,) * (d - 1) + (c.denominator,))
    t = _root_table(poly, 1e-12)
    for i in np.flatnonzero(t.real).tolist():
        if (t.re[i] > 0) == (r > 0):
            return AlgebraicNumber(poly, i)
    raise AlgebraicError("no certified real root found for the radical", r=r, m=m, poly=poly)


def _exact_root(c: Fraction, p: int) -> Optional[Fraction]:
    """The real p-th root of c when it is rational, else None."""
    if c < 0 and p % 2 == 0:
        return None
    out = []
    for n in (abs(c.numerator), c.denominator):
        x = 1 << -(-n.bit_length() // p)  # integer Newton from above to floor(n^(1/p))
        while (y := ((p - 1) * x + n // x ** (p - 1)) // p) < x:
            x = y
        if x**p != n:
            return None
        out.append(x)
    return Fraction(out[0] if c > 0 else -out[0], out[1])


# ---------------------------------------------------------------------------
# torus elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusElement:
    """base^exponent, kept symbolic so heights stay exact under power maps."""

    base: AlgebraicNumber
    exponent: int = 1

    def __post_init__(self):
        if self.base.is_rational and self.base.as_rational() == 0:
            raise AlgebraicError("torus element base must be nonzero")

    @classmethod
    def from_rational(cls, r: Rational, exponent: int = 1) -> "TorusElement":
        return cls(AlgebraicNumber.from_rational(r), exponent)

    @classmethod
    def one(cls) -> "TorusElement":
        return cls(AlgebraicNumber.from_rational(1), 1)

    @property
    def is_one(self) -> bool:
        if self.exponent == 0:
            return True
        return self.base.is_rational and self.base.as_rational() == 1

    def is_unit_circle(self) -> bool:
        """True iff the value is a root of unity (exact Kronecker test)."""
        return self.exponent == 0 or is_root_of_unity(self.base) is not None

    def rational_value(self) -> Optional[Fraction]:
        """Exact value when base is rational (any exponent) or the exponent
        is 0, else None."""
        if self.exponent == 0:
            return Fraction(1)
        if not self.base.is_rational:
            return None
        b = self.base.as_rational()
        e = self.exponent
        if e >= 0:
            return b**e
        return 1 / (b ** (-e))

    def __str__(self):
        return f"({self.base})^{self.exponent}"


def torus_power(t: TorusElement, k: int) -> TorusElement:
    """The power map t -> t^k on a symbolic torus element."""
    return TorusElement(t.base, t.exponent * int(k))


def torus_height(t: TorusElement, tol: float = 1e-12) -> float:
    """h(base^exponent) = |exponent| * h(base), exactly by symbolic scaling.

    The float product holds h(base) to about 2^-52 of itself, so h(base) is
    asked for no finer than that, and the value is within tol + 2^-50 *
    value. Raises OverflowError when |exponent| or that product is beyond
    float range."""
    if t.exponent == 0:
        return 0.0
    scale = abs(t.exponent)
    # tol / scale and scale * h convert scale to float, which overflows near 2^1024
    if scale.bit_length() >= 1024:
        raise OverflowError("|exponent| * h(base) is beyond float range")
    h = weil_height(t.base, tol)
    if scale > 1:
        # h - tol is a lower bound on h(base)
        h = weil_height(t.base, max(tol / scale, 2.0**-52 * (h - tol)))
    value = scale * h
    if value == math.inf:
        raise OverflowError("|exponent| * h(base) is beyond float range")
    return value
