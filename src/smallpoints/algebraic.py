"""Algebraic numbers over Q with certified root enclosures and Weil heights.

An algebraic number is stored as (minimal polynomial, root index): the
polynomial is primitive with positive leading coefficient and irreducible
over Q, and the index selects one root in a deterministic ordering of the
certified enclosures (sorted by real part, ties by imaginary part, refined
until the order is unambiguous).

Heights are absolute logarithmic Weil heights computed through the Mahler
measure of the minimal polynomial:

    h(a) = (1/d) * ( log|c_d| + sum_i log+ |root_i| )

Root enclosures are disks (center, radius) certified to contain exactly one
root: the radius bound is the classical  d * |p(z)/p'(z)|  (distance from z
to the nearest root of p is at most that), evaluated with a rigorous
floating-point error majorant, and pairwise disjointness of the d disks
pigeonholes one root per disk.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
import sympy
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


class AlgebraicError(ValueError):
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
    """Root certification did not converge within the iteration budget."""

    def __init__(self, achieved_radius: float, budget: int):
        self.achieved_radius = achieved_radius
        self.budget = budget
        super().__init__(
            f"root refinement exhausted {budget} sweeps; "
            f"achieved radius {achieved_radius:.3e}"
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

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            raise AlgebraicError("derivative of a constant is the zero polynomial")
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

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

    def to_sympy(self):
        return sum(c * _X**i for i, c in enumerate(self.coeffs))

    def __str__(self):
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


_X = sympy.Symbol("x")


def _irreducible_or_factor(poly: IntPolynomial):
    """Return None if irreducible over Q, else a nontrivial factor."""
    if poly.degree == 1:
        return None
    _, factors = sympy.Poly(poly.to_sympy(), _X).factor_list()
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
    linear factors, where the value is a known rational.
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

    def abs_interval(self):
        """(lo, hi) bounds on the modulus of the enclosed root."""
        with mp.workdps(30):
            m = mp.sqrt(self.re * self.re + self.im * self.im)
            pad = abs(m) * mpf(2) ** (-90) + mpf(2) ** (-300)
            lo = m - self.radius - pad
            hi = m + self.radius + pad
        return (max(mpf(0), lo), hi)

    def angle_unit(self) -> float:
        """Angle in [0, 1) turns; exactly 0 or 1/2 for certified-real roots."""
        if self.is_real:
            return 0.0 if self.re >= 0 else 0.5
        with mp.workdps(30):
            a = mp.atan2(self.im, self.re) / (2 * mp.pi)
            if a < 0:
                a += 1
        return float(a)


class _Rec:
    """Mutable working record during refinement (internal)."""

    __slots__ = ("re", "im", "rad", "real", "exact", "mult", "pair")

    def __init__(self, re, im, rad):
        self.re = mpf(re)
        self.im = mpf(im)
        self.rad = mpf(rad)
        self.real = None  # True / False / None = undecided
        self.exact = None
        self.mult = 1
        self.pair = None


_ROOT_BUDGET = 200  # total polish sweeps per polynomial, then give up


def _closed_form_seeds(coeffs) -> Optional[np.ndarray]:
    """float64 roots of a binomial or cyclotomic polynomial, else None.

    c_d x^d + c_0 has the roots rho * exp(i pi (2k + delta) / d) with
    rho = |c_0/c_d|^(1/d) and delta = 1 exactly when c_0/c_d > 0; Phi_n,
    recognised by exact comparison, has the roots exp(2 pi i k / n) with
    gcd(k, n) = 1. The seeds are certified like any other.
    """
    d = len(coeffs) - 1
    if d >= 2 and coeffs[0] and not any(coeffs[1:-1]):
        log_rho = (math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / d
        if abs(log_rho) > 700:
            return None
        delta = 1 if (coeffs[0] > 0) == (coeffs[-1] > 0) else 0
        k = np.arange(d)
        return math.exp(log_rho) * np.exp(1j * np.pi * (2 * k + delta) / d)
    n = _cyclotomic_order(coeffs)
    if n is None:
        return None
    ks = np.array([k for k in range(n) if math.gcd(k, n) == 1])
    return np.exp(2j * np.pi * ks / n)


def _stage_a(coeffs, seeds):
    """float64 seed + polish + certification; None if not applicable/failed.

    Seeds are the closed-form roots when given, else np.roots eigenvalues.
    Returns (centers, radii) arrays with radii certified via the d*|p/p'|
    bound and a rounding majorant. Requires coefficients exactly
    representable in double precision.
    """
    d = len(coeffs) - 1
    if d < 1 or any(abs(c) > 2**52 for c in coeffs):
        return None
    if seeds is not None:
        z = seeds
    else:
        try:
            z = np.roots(np.array(coeffs[::-1], dtype=float))
        except np.linalg.LinAlgError:
            return None
    if len(z) != d or not np.all(np.isfinite(z)):
        return None
    asc = np.array(coeffs, dtype=float)
    dasc = asc[1:] * np.arange(1, d + 1)

    def horner(cs, x):
        acc = np.zeros_like(x) + cs[-1]
        for c in cs[-2::-1]:
            acc = acc * x + c
        return acc

    for _ in range(3):
        pv = horner(asc, z)
        dv = horner(dasc, z)
        step = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0)
        z = z - step
    pv = horner(asc, z)
    dv = horner(dasc, z)
    azs = np.abs(z)
    pt = horner(np.abs(asc), azs)  # majorant sum |c_i| |z|^i
    dt = horner(np.abs(dasc), azs)
    u = 2.0**-53
    # 10*d*u covers accumulated complex Horner rounding with slack
    ep = 10 * d * u * pt + 1e-300
    ed = 10 * d * u * dt + 1e-300
    den = np.abs(dv) - ed
    if np.any(den <= 0):
        return None
    rad = d * (np.abs(pv) + ep) / den * (1 + 1e-12)
    if not np.all(np.isfinite(rad)):
        return None
    return z, rad


def _mp_eval_bounds(poly: IntPolynomial, z: mpc):
    """(p(z), |p(z)| upper, |p'(z)| lower) with rounding majorants at mp.prec."""
    d = poly.degree
    pv = poly(z)
    dpoly = poly.derivative()
    dv = dpoly(z)
    az = abs(z)
    pt = mpf(0)
    for c in reversed(poly.coeffs):
        pt = pt * az + abs(c)
    dt = mpf(0)
    for c in reversed(dpoly.coeffs):
        dt = dt * az + abs(c)
    u = mpf(2) ** (2 - mp.prec)
    ep = 10 * d * u * pt
    ed = 10 * d * u * dt
    hi = abs(pv) + ep
    lo = abs(dv) - ed
    return pv, dv, hi, lo


def _polish_mp(poly: IntPolynomial, rec: _Rec, target):
    """Newton-polish one record at current mp precision; update center/radius."""
    d = poly.degree
    if rec.real is True:
        z = mpc(rec.re, 0)
    else:
        z = mpc(rec.re, rec.im)
    dpoly = poly.derivative()
    for _ in range(24):
        pv = poly(z)
        dv = dpoly(z)
        if dv == 0:
            break
        step = pv / dv
        z = z - step
        if abs(step) < target / (4 * d):
            break
    _, _, hi, lo = _mp_eval_bounds(poly, z)
    if lo > 0:
        rad = d * hi / lo * (1 + mpf(2) ** (-40))
        if rec.real is True:
            # keep the representation exactly real
            rad = rad + abs(z.imag)
            z = mpc(z.real, 0)
        rec.re, rec.im, rec.rad = mpf(z.real), mpf(z.imag), mpf(rad)


def _geometry_np(z, r):
    """Certify disjointness, realness, pairing, order in float64.

    Margins are one-sided: a pair within relative 1e-9 of touching is treated
    as overlapping, which can only force refinement, never a wrong
    certificate. Returns (real_flags, pair, order, lex) or None if
    ambiguous; lex is set when every re-group is one root or a conjugate
    pair, so that order is the lexicographic (re, im) order of the roots.
    """
    n = len(z)
    rr = (r[:, None] + r[None, :]) * (1 + 1e-9) + 1e-290
    dd = np.abs(z[:, None] - z[None, :])
    over = dd <= rr
    np.fill_diagonal(over, False)
    if over.any():
        return None
    overm = np.abs(z[:, None] - np.conj(z)[None, :]) <= rr
    real = np.zeros(n, dtype=bool)
    pair = np.full(n, -1)
    for i in range(n):
        hits = np.nonzero(overm[i])[0]
        if len(hits) != 1:
            return None
        if hits[0] == i:
            real[i] = True
        else:
            pair[i] = hits[0]
    # group roots whose real parts are not certifiably separated
    re, im = z.real, z.imag
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.abs(re[:, None] - re[None, :]) <= rr)):
        if i < j:
            parent[find(int(i))] = find(int(j))
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if abs(im[i] - im[j]) <= rr[i, j]:
                    return None
    gkey = {g: min(float(re[i]) for i in members) for g, members in groups.items()}
    order = sorted(range(n), key=lambda i: (gkey[find(i)], float(im[i]), float(re[i])))
    lex = all(len(m) == 1 or (len(m) == 2 and pair[m[0]] == m[1]) for m in groups.values())
    return real, pair, order, lex


def _disjoint(recs) -> bool:
    for i in range(len(recs)):
        for j in range(i + 1, len(recs)):
            dx = recs[i].re - recs[j].re
            dy = recs[i].im - recs[j].im
            if mp.sqrt(dx * dx + dy * dy) <= recs[i].rad + recs[j].rad:
                return False
    return True


def _classify_real_and_pair(recs) -> bool:
    """Set .real and .pair on each record; False if still ambiguous."""
    n = len(recs)
    for r in recs:
        r.pair = None
        if abs(r.im) > r.rad:
            r.real = False
        else:
            r.real = None
    ok = True
    for i, r in enumerate(recs):
        if r.real is False:
            # mirror disk must meet exactly one disk: the conjugate root's
            hits = []
            for j, s in enumerate(recs):
                dx = r.re - s.re
                dy = -r.im - s.im
                if mp.sqrt(dx * dx + dy * dy) <= r.rad + s.rad:
                    hits.append(j)
            if len(hits) == 1 and hits[0] != i:
                r.pair = hits[0]
            else:
                ok = False
        elif r.real is None:
            # disk crosses the axis; real iff the mirror disk meets only itself
            alone = True
            for j, s in enumerate(recs):
                if j == i:
                    continue
                dx = r.re - s.re
                dy = -r.im - s.im
                if mp.sqrt(dx * dx + dy * dy) <= r.rad + s.rad:
                    alone = False
            if alone:
                r.real = True
                r.rad = r.rad + abs(r.im)
                r.im = mpf(0)
            else:
                ok = False
    return ok


def _canonical_order(recs):
    """Sort by (re, im) using certified separations; None if unresolved.

    Records whose real-part intervals overlap are grouped (transitively) and
    ordered inside the group by imaginary part, which must then be certified
    disjoint. Groups themselves are separated in re, so the order is total.
    Returns (order, lex), lex as in _geometry_np.
    """
    n = len(recs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(recs[i].re - recs[j].re) <= recs[i].rad + recs[j].rad:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        if len(members) == 1:
            continue
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if abs(recs[i].im - recs[j].im) <= recs[i].rad + recs[j].rad:
                    return None  # same re-group but im not separated: refine
    # groups are re-separated from each other; inside a group (equal re up
    # to certification) the imaginary part decides
    gkey = {g: min(float(recs[i].re) for i in members) for g, members in groups.items()}
    order = sorted(
        range(n),
        key=lambda i: (gkey[find(i)], float(recs[i].im), float(recs[i].re)),
    )
    lex = all(
        len(m) == 1 or (len(m) == 2 and recs[m[0]].pair == m[1]) for m in groups.values()
    )
    return order, lex


def _roots_squarefree(poly: IntPolynomial, eps: float):
    """(records, lex): certified, canonically ordered enclosures of a
    squarefree polynomial, lex as in _geometry_np."""
    d = poly.degree
    if d == 1:
        c0, c1 = poly.coeffs
        val = Fraction(-c0, c1)
        with mp.workdps(40):
            re = mpf(val.numerator) / mpf(val.denominator)
            rad = abs(re) * mpf(2) ** (-100) + mpf(2) ** (-200)
        rec = _Rec(re, mpf(0), rad)
        rec.real = True
        rec.exact = val
        return [rec], True

    target = mpf(eps)
    budget = _ROOT_BUDGET
    seeds = _closed_form_seeds(poly.coeffs)
    seeded = _stage_a(poly.coeffs, seeds)
    if seeded is not None:
        zs, rads = seeded
        if np.all(rads <= eps):
            geom = _geometry_np(zs, rads)
            if geom is not None:
                real, _, order, lex = geom
                out = []
                for i in order:
                    rec = _Rec(zs[i].real, zs[i].imag, rads[i] * (1 + 1e-12))
                    if real[i]:
                        rec.real = True
                        rec.rad = rec.rad + abs(rec.im)
                        rec.im = mpf(0)
                    else:
                        rec.real = False
                    out.append(rec)
                return out, lex
        recs = [_Rec(z.real, z.imag, r) for z, r in zip(zs, rads)]
    elif seeds is not None:
        recs = [_Rec(z.real, z.imag, 1) for z in seeds]
    else:
        with mp.workdps(40):
            try:
                zs = mp.polyroots(
                    [mpf(c) for c in reversed(poly.coeffs)], maxsteps=100, extraprec=80
                )
            except Exception as exc:
                raise RootRefinementError(float("inf"), budget) from exc
            recs = [_Rec(mpf(z.real), mpf(z.imag), mpf(1)) for z in zs]
    dps = 40

    while budget > 0:
        with mp.workdps(dps):
            for rec in recs:
                _polish_mp(poly, rec, target)
            budget -= 1
            good = (
                all(r.rad <= target for r in recs)
                and _disjoint(recs)
                and _classify_real_and_pair(recs)
            )
            if good:
                ordered = _canonical_order(recs)
                if ordered is not None:
                    order, lex = ordered
                    return [recs[i] for i in order], lex
        dps *= 2
        if dps > 3000:
            break
    achieved = max(float(r.rad) for r in recs)
    raise RootRefinementError(achieved, _ROOT_BUDGET)


def _eps_bucket(eps: float) -> float:
    if eps <= 0:
        raise AlgebraicError("eps must be positive")
    return 2.0 ** math.floor(math.log2(eps))


def _certify(coeffs: tuple, eps: float, trusted_squarefree: bool):
    """(roots, lex): certified roots in canonical order, lex as in _geometry_np."""
    poly = IntPolynomial(coeffs)
    if trusted_squarefree:
        pieces = [(poly, 1)]
    else:
        expr = sympy.Poly(poly.to_sympy(), _X)
        _, factors = expr.sqf_list()
        pieces = [
            (IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs()))), int(m))
            for f, m in factors
            if f.degree() >= 1
        ]
        if not pieces:
            raise AlgebraicError("constant polynomial has no roots")
    allrecs = []
    for piece, mult in pieces:
        recs, lex = _roots_squarefree(piece, eps)
        for rec in recs:
            rec.mult = mult
            allrecs.append(rec)
    if len(pieces) > 1:
        # cross-factor disks are disjoint mathematically; refine until visibly so
        tries = 0
        while not _disjoint(allrecs) and tries < 8:
            finer = eps / 16 ** (tries + 1)
            allrecs = []
            for piece, mult in pieces:
                for rec in _roots_squarefree(piece, finer)[0]:
                    rec.mult = mult
                    allrecs.append(rec)
            tries += 1
        with mp.workdps(60):
            if not _classify_real_and_pair(allrecs):
                raise RootRefinementError(max(float(r.rad) for r in allrecs), _ROOT_BUDGET)
            ordered = _canonical_order(allrecs)
        if ordered is None:
            raise RootRefinementError(max(float(r.rad) for r in allrecs), _ROOT_BUDGET)
        order, lex = ordered
        allrecs = [allrecs[i] for i in order]
    out = []
    for rec in allrecs:
        root = CertifiedRoot(
            re=rec.re,
            im=rec.im,
            radius=rec.rad,
            is_real=bool(rec.real),
            multiplicity=rec.mult,
            exact=rec.exact,
        )
        out.extend([root] * rec.mult)
    return tuple(out), lex


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _FinestRootCache:
    """_certify memoised with one entry per (coefficients, trusted flag).

    The entry keeps the finest certification made so far: it serves every
    request at its eps or coarser, and a finer request replaces it, so a
    stricter request never gets a looser enclosure. Least recently used
    entries are evicted past maxsize."""

    def __init__(self, maxsize: int):
        self._maxsize = maxsize
        self._entries = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, coeffs: tuple, eps: float, trusted_squarefree: bool):
        key = (coeffs, trusted_squarefree)
        entry = self._entries.get(key)
        if entry is not None and entry[0] <= eps:
            self._hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self._misses += 1
        value = _certify(coeffs, eps, trusted_squarefree)
        self._entries[key] = (eps, value)
        self._entries.move_to_end(key)
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return value

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self):
        self._entries.clear()
        self._hits = self._misses = 0


_ordered_roots = _FinestRootCache(maxsize=512)


def roots(p: IntPolynomial, eps: float = 1e-12, trusted_squarefree: bool = False):
    """Certified enclosures of all roots of p, with multiplicity.

    Returns degree-many disks of radius <= eps in the canonical order; for
    squarefree p the disks are pairwise disjoint. The canonical order is
    lexicographic in (re, im): roots whose real parts are certified apart
    sort by real part, and roots whose real-part enclosures overlap, such
    as a complex-conjugate pair (equal real parts), sort by imaginary part.
    Scaling by a rational r keeps this order for r > 0 and reverses it for
    r < 0, so r*a keeps a's root index i, or takes d-1-i (see
    scale_by_rational). Binomials c_d x^d + c_0 and
    cyclotomic polynomials are seeded from their closed-form roots, other
    polynomials from np.roots (mpmath when the coefficients exceed
    float64); every seed is certified by the same d*|p/p'| disk bound.
    The finest certification of each polynomial is cached and serves
    coarser requests. Raises RootRefinementError (with the achieved radius)
    if certification does not converge within the iteration budget.
    """
    if not isinstance(p, IntPolynomial):
        p = IntPolynomial(tuple(p))
    if p.degree < 1:
        raise AlgebraicError("degree >= 1 required")
    rs, _ = _ordered_roots(p.coeffs, _eps_bucket(eps), trusted_squarefree)
    return list(rs)


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


def mahler_log(
    p: IntPolynomial, tol: float = 1e-12, trusted_squarefree: bool = False
) -> MahlerLog:
    """log Mahler measure log|c_d| + sum log+|root_i|, with error bound.

    The error bound comes from the root enclosure radii; enclosures are
    refined until the bound is at most tol. trusted_squarefree is passed
    on to roots().
    """
    if not isinstance(p, IntPolynomial):
        p = IntPolynomial(tuple(p))
    if p.degree < 1:
        raise AlgebraicError("degree >= 1 required")
    if p.degree == 1 or all(c == 0 for c in p.coeffs[1:-1]):
        # binomial c_d x^d + c_0: every root has modulus |c_0/c_d|^(1/d),
        # so the measure is exactly max(|c_0|, |c_d|)
        with mp.workdps(40):
            v = _log_int(max(abs(p.constant), abs(p.leading)))
        return MahlerLog(float(v), 1e-15)
    eps = max(min(tol / (4 * p.degree), 1e-10), 1e-290)
    for _ in range(60):
        rs = roots(p, eps, trusted_squarefree)
        with mp.workdps(60):
            lo = _log_int(abs(p.leading))
            hi = lo + abs(lo) * mpf(2) ** (-120)
            for r in rs:
                alo, ahi = r.abs_interval()
                if r.exact is not None:
                    q = abs(r.exact)
                    if q > 1:
                        t = mp.log(mpf(q.numerator) / q.denominator)
                        lo += t * (1 - mpf(2) ** (-120))
                        hi += t * (1 + mpf(2) ** (-120))
                    continue
                if ahi > 1:
                    hi += mp.log(ahi)
                if alo > 1:
                    lo += mp.log(alo)
            err = float((hi - lo) / 2)
            val = float((hi + lo) / 2)
        if err <= tol:
            return MahlerLog(val, err)
        eps /= 256
    raise RootRefinementError(err, _ROOT_BUDGET)


# ---------------------------------------------------------------------------
# algebraic numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicNumber:
    """Root number `index` (canonical order) of an irreducible minpoly."""

    minpoly: IntPolynomial
    index: int

    def __post_init__(self):
        if not (0 <= self.index < self.minpoly.degree + 1):
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
        trusted_irreducible: bool = False,
        strict_canonical: bool = False,
    ) -> "AlgebraicNumber":
        poly = IntPolynomial(tuple(coeffs))
        if poly.degree < 1:
            raise AlgebraicError("minimal polynomial must have degree >= 1")
        if strict_canonical and not poly.is_canonical:
            raise AlgebraicError(
                "minimal polynomial must be primitive with positive leading "
                "coefficient, coefficients constant term first "
                "(e.g. x^8 - 2 is -2,0,0,0,0,0,0,0,1)"
            )
        poly = poly.primitive()
        if not trusted_irreducible:
            factor = _irreducible_or_factor(poly)
            if factor is not None:
                raise ReducibleMinpolyError(poly, factor)
        if index is None:
            index = 0 if approx is None else _index_near(poly, complex(approx))
        if not (0 <= index < poly.degree):
            raise AlgebraicError("root_index out of range")
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
        return roots(self.minpoly, eps, trusted_squarefree=True)[self.index]

    def approx(self, eps: float = 1e-12) -> complex:
        r = self.enclosure(eps)
        return complex(float(r.re), float(r.im))

    def __str__(self):
        if self.is_rational:
            return str(self.as_rational())
        return f"root#{self.index} of {self.minpoly}"


def _index_near(poly: IntPolynomial, approx: complex) -> int:
    # coarse enclosures are enough to pick a root; disks are disjoint
    rs = roots(poly, 1e-9, trusted_squarefree=True)
    dists = [abs(complex(float(r.re), float(r.im)) - approx) for r in rs]
    return int(min(range(len(rs)), key=lambda i: (dists[i], i)))


def conjugates(a: AlgebraicNumber):
    """All roots of a's minimal polynomial as algebraic numbers."""
    return [AlgebraicNumber(a.minpoly, i) for i in range(a.degree)]


def weil_height(a, tol: float = 1e-12) -> float:
    """Absolute logarithmic Weil height; mahler_log(minpoly)/degree.

    Accepts AlgebraicNumber, int, or Fraction. Guaranteed error <= tol.
    """
    if isinstance(a, (int, Fraction)):
        a = AlgebraicNumber.from_rational(a)
    if a.is_rational:
        v = a.as_rational()
        if v == 0:
            return 0.0
        with mp.workdps(40):
            return float(_log_int(max(abs(v.numerator), v.denominator)))
    d = a.degree
    poly = a.minpoly
    if poly.leading == 1 and abs(poly.constant) == 1 and is_root_of_unity(a) is not None:
        return 0.0  # Kronecker: algebraic integers of height 0 are roots of unity
    m = mahler_log(poly, tol * d / 2, trusted_squarefree=True)
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
    _, lex = _ordered_roots(a.minpoly.coeffs, _eps_bucket(1e-9), True)
    if lex:
        return AlgebraicNumber(poly, a.index if r > 0 else d - 1 - a.index)
    eps = 1e-12
    for _ in range(30):
        src = a.enclosure(eps)
        with mp.workdps(60):
            cre = src.re * s / t
            cim = src.im * s / t
            crad = src.radius * abs(mpf(s)) / t
            cands = []
            for i, rt in enumerate(roots(poly, eps, trusted_squarefree=True)):
                dx = rt.re - cre
                dy = rt.im - cim
                if mp.sqrt(dx * dx + dy * dy) <= rt.radius + crad:
                    cands.append(i)
        if len(cands) == 1:
            return AlgebraicNumber(poly, cands[0])
        eps /= 256
    raise AlgebraicError("could not match the scaled root")


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
    """The real m-th root of the rational r (positive root for r > 0).

    r < 0 requires odd m. The minimal polynomial is the irreducible factor of
    den*x^m - num owning that real root.
    """
    r = Fraction(r)
    m = int(m)
    if m < 1:
        raise AlgebraicError("m must be >= 1")
    if r == 0:
        raise AlgebraicError("radical of 0 rejected")
    if r < 0 and m % 2 == 0:
        raise AlgebraicError("even root of a negative rational is not real")
    if m == 1:
        return AlgebraicNumber.from_rational(r)
    raw = IntPolynomial((-r.numerator,) + (0,) * (m - 1) + (r.denominator,)).primitive()
    if _eisenstein_witness(raw):
        poly = raw
    else:
        factor = _irreducible_or_factor(raw)
        if factor is None:
            poly = raw
        else:
            # pick the irreducible factor vanishing at the real m-th root
            _, factors = sympy.Poly(raw.to_sympy(), _X).factor_list()
            with mp.workdps(60):
                tval = mp.sign(r) * mp.root(abs(mpf(r.numerator)) / r.denominator, m)
                best = None
                for f, _mult in factors:
                    if f.degree() < 1:
                        continue
                    cand = IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs())))
                    v = abs(cand(tval))
                    if best is None or v < best[0]:
                        best = (v, cand)
            poly = best[1].primitive()
    rs = roots(poly, 1e-12, trusted_squarefree=True)
    sign = 1 if r > 0 else -1
    for i, rt in enumerate(rs):
        if rt.is_real and (rt.re > 0) == (sign > 0):
            return AlgebraicNumber(poly, i)
    raise AlgebraicError("no certified real root found for the radical")


def _eisenstein_witness(poly: IntPolynomial) -> bool:
    """True if some prime certifies irreducibility by Eisenstein's criterion."""
    c0 = abs(poly.constant)
    if c0 == 0:
        return False
    for p in sympy.factorint(c0):
        if c0 % (p * p) == 0:
            continue
        if poly.leading % p == 0:
            continue
        if all(c % p == 0 for c in poly.coeffs[:-1]):
            return True
    return False


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
        """Exact value when base is rational (any exponent), else None."""
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
    """h(base^exponent) = |exponent| * h(base), exactly by symbolic scaling."""
    if t.exponent == 0:
        return 0.0
    scale = abs(t.exponent)
    return scale * weil_height(t.base, tol / scale)
