"""Product heights and small-point exploration on E x G_m^n.

An almost split semiabelian variety at desk scale is a product
A = E x G_m^n of an elliptic curve over Q and a split torus. The product
height h(P, t_1..t_n) = hhat(P) + sum h(t_i) vanishes exactly on
torsion x roots of unity, and the sets

    B_eps    = { z in A(kbar) : h(z) <= eps }
    Gamma_eps = Gamma + B_eps
    Gamma_0   = Gamma + (torsion x roots of unity)

drive the structure theory: a subvariety X meets Gamma_eps in a finite
union of translate pieces once eps is small enough. That eps is not
effective, so `explore_theorem` is an experiment harness: it enumerates a
declared catalog of small points and a bounded chunk of Gamma, reports
every intersection with X it can certify, and says in so many words that
finding nothing proves nothing.

Membership of a point in the relation locus X is decided exactly when the
coordinates allow it (all rational, or a single algebraic torus slot, where
vanishing reduces to divisibility by the slot's minimal polynomial) and
numerically with a reported residual otherwise. The identity of E carries
no affine coordinates, so a relation mentioning x or y is reported as
ExactNo at the identity: the locus is read as affine in those variables.

The explorer decides membership of x = gamma + z before it builds x: for
a torus value r alpha^e the verdict depends on alpha only through its
minimal polynomial, so it is decided once per (gamma, torsion point,
minimal-polynomial class), by the same test curve_membership runs with
r = 1, and only the hits are built. A nonzero slot polynomial whose
exponents span less than deg(alpha) / |e| cannot vanish at alpha, so such
a class is rejected by degree alone, before any division (a relation of
degree 1 in t never divides against a catalog value of degree 2 or more).
Catalog torus values are roots of unity, positive rationals and positive
real radicals, so two hits differ by torsion x roots of unity exactly when
their curve parts agree modulo torsion and their torus slots agree in
modulus; the explorer groups hits into cosets by that exact key, in one
pass.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebraic import (
    IntPolynomial,
    TorusElement,
    radical,
    root_of_unity,
    scale_by_rational,
    torus_height,
)
from .elliptic import (
    ECPoint,
    EllipticCurveQ,
    ec_add,
    ec_mul,
    ec_neg,
    is_torsion,
    nontorsion_height,
    require_on_curve,
    torsion_points,
)

__all__ = [
    "SemiabelianError",
    "SearchSpaceError",
    "BallVerdict",
    "Membership",
    "AmbientVariety",
    "SemiabelianPoint",
    "SubgroupGamma",
    "CurveRelation",
    "product_height",
    "in_B_eps",
    "gamma_enumerate",
    "gamma_eps_certificate",
    "curve_membership",
    "ExploreConfig",
    "explore_theorem",
    "DISCLAIMER",
    "INTEGRALITY_NOTE",
]

DISCLAIMER = (
    "Absence of hits is NOT a proof: the theorem's eps is non-effective, "
    "and this search covers only the declared catalog and generator box."
)
INTEGRALITY_NOTE = (
    "The relation is treated as a formal locus; geometric integrality of X "
    "is the caller's responsibility and has not been verified."
)


class SemiabelianError(ValueError):
    """Invalid semiabelian configuration or computation."""


class SearchSpaceError(SemiabelianError):
    """The requested enumeration is too large to run."""

    def __init__(self, estimate: int, limit: int):
        super().__init__(
            f"search space of about {estimate} candidates exceeds limit {limit}"
        )
        self.estimate = estimate
        self.limit = limit


class BallVerdict(enum.Enum):
    IN = "In"
    OUT = "Out"
    BOUNDARY = "Boundary"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class Membership:
    """Outcome of a relation test, with the certainty level it earned."""

    kind: str  # ExactYes | ExactNo | NumericYes | NumericNo
    residual: Optional[float] = None

    @property
    def is_yes(self) -> bool:
        return self.kind in ("ExactYes", "NumericYes")

    @property
    def is_exact(self) -> bool:
        return self.kind in ("ExactYes", "ExactNo")

    def __str__(self):
        if self.residual is None:
            return self.kind
        return f"{self.kind}(residual={self.residual:.3e})"


@dataclass(frozen=True)
class AmbientVariety:
    """E x G_m^n."""

    curve: EllipticCurveQ
    torus_rank: int

    def __post_init__(self):
        if int(self.torus_rank) != self.torus_rank or self.torus_rank < 0:
            raise SemiabelianError("torus rank must be a nonnegative integer")
        object.__setattr__(self, "torus_rank", int(self.torus_rank))

    def identity(self) -> "SemiabelianPoint":
        return SemiabelianPoint(
            ECPoint.identity(), tuple(TorusElement.one() for _ in range(self.torus_rank))
        )


@dataclass(frozen=True)
class SemiabelianPoint:
    """A point (P, t_1..t_n) with rational P and symbolic torus entries."""

    ec: ECPoint
    torus: Tuple[TorusElement, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torus", tuple(self.torus))

    def on_variety(self, A: AmbientVariety) -> "SemiabelianPoint":
        if len(self.torus) != A.torus_rank:
            raise SemiabelianError(
                f"point has {len(self.torus)} torus coordinates, "
                f"ambient rank is {A.torus_rank}"
            )
        if not self.ec.is_identity:
            require_on_curve(A.curve, self.ec)
        return self

    def __str__(self):
        ts = ", ".join(str(t) for t in self.torus)
        return f"({self.ec}; {ts})" if ts else f"({self.ec})"


@dataclass(frozen=True)
class SubgroupGamma:
    """Finitely generated Gamma, generators with rational torus coordinates.

    The torus rank is carried so the trivial subgroup still knows the
    ambient shape of its identity."""

    generators: Tuple[SemiabelianPoint, ...]
    torus_rank: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if len(g.torus) != self.torus_rank:
                raise SemiabelianError("generator torus rank mismatch")
            for t in g.torus:
                if t.rational_value() is None:
                    raise SemiabelianError(
                        "subgroup generators need rational torus coordinates"
                    )

    @classmethod
    def of(cls, generators: Sequence[SemiabelianPoint],
           torus_rank: Optional[int] = None) -> "SubgroupGamma":
        if torus_rank is None:
            if not generators:
                raise SemiabelianError("empty subgroup needs an explicit torus rank")
            torus_rank = len(generators[0].torus)
        return cls(tuple(generators), torus_rank)


# ---------------------------------------------------------------------------
# heights and the balls B_eps
# ---------------------------------------------------------------------------


def height_parts(curve: Optional[EllipticCurveQ], ec: Optional[ECPoint],
                 torus: Sequence[TorusElement], tol: float):
    """(hq, eq, hl, el, exactly_zero) for the point (ec, torus), ec None on
    the torus alone: hq = hhat(ec) scales by m^2 under P -> mP, hl = sum of
    h(t_i) by m under t -> t^m, and eq, el bound their errors. Torsion and
    roots of unity are decided once, exactly, as exact zeros; every other
    part gets tol / parts plus |h| ulp (float64 is not certified below)."""
    each = tol / ((ec is not None) + len(torus))
    ulp = 2.0**-50
    hq = eq = hl = el = 0.0
    zero = True
    if not is_torsion_point(curve, ec, ()):
        hq = nontorsion_height(curve, ec, each)
        eq = each + hq * ulp
        zero = False
    for t in torus:
        if not t.is_unit_circle():
            v = torus_height(t, each)
            hl += v
            el += each + v * ulp
            zero = False
    return hq, eq, hl, el, zero


def is_torsion_point(curve: Optional[EllipticCurveQ], ec: Optional[ECPoint],
                     torus: Sequence[TorusElement]) -> bool:
    """Exact: is (ec, torus) torsion x roots of unity, where the product
    height vanishes? ec None on the torus alone. No height is computed."""
    return ((ec is None or ec.is_identity or is_torsion(curve, ec))
            and all(t.is_unit_circle() for t in torus))


def product_height(A: AmbientVariety, z: SemiabelianPoint, tol: float = 1e-9) -> float:
    """hhat(P) + sum of torus heights, to within tol; exact 0 on
    torsion x roots of unity."""
    if not tol > 0:
        raise SemiabelianError("tol must be positive")
    z.on_variety(A)
    hq, _, hl, _, _ = height_parts(A.curve, z.ec, z.torus, tol)
    return hq + hl


def in_B_eps(
    A: AmbientVariety, z: SemiabelianPoint, eps: float, tol: float = 1e-9
) -> BallVerdict:
    """Is h(z) <= eps? In / Out when the certified height decides it,
    Boundary when eps falls inside the error band."""
    if eps < 0:
        raise SemiabelianError("eps must be >= 0")
    if not tol > 0:
        raise SemiabelianError("tol must be positive")
    z.on_variety(A)
    hq, eq, hl, el, zero = height_parts(A.curve, z.ec, z.torus, tol)
    h, err = hq + hl, eq + el
    if zero:
        return BallVerdict.IN
    if h + err <= eps:
        return BallVerdict.IN
    if h - err > eps:
        return BallVerdict.OUT
    return BallVerdict.BOUNDARY


# ---------------------------------------------------------------------------
# Gamma enumeration and Gamma_eps certificates
# ---------------------------------------------------------------------------


def _torus_mul(a: TorusElement, b: TorusElement) -> Optional[TorusElement]:
    """a * b within the representable class, or None."""
    if a.is_one:
        return b
    if b.is_one:
        return a
    ra, rb = a.rational_value(), b.rational_value()
    if ra is not None and rb is not None:
        return TorusElement.from_rational(ra * rb)
    if ra is not None or rb is not None:
        r = ra if ra is not None else rb
        alg = b if ra is not None else a
        if alg.exponent == 1:
            return TorusElement(scale_by_rational(alg.base, r), 1)
        if alg.exponent == -1:
            return TorusElement(scale_by_rational(alg.base, 1 / r), -1)
        return None
    if a.base == b.base:
        return TorusElement(a.base, a.exponent + b.exponent)
    return None


def _point_add(A: AmbientVariety, p: SemiabelianPoint,
               q: SemiabelianPoint) -> Optional[SemiabelianPoint]:
    ec = ec_add(A.curve, p.ec, q.ec)
    torus = []
    for ta, tb in zip(p.torus, q.torus):
        t = _torus_mul(ta, tb)
        if t is None:
            return None
        torus.append(t)
    return SemiabelianPoint(ec, tuple(torus))


def _point_sub(A: AmbientVariety, p: SemiabelianPoint,
               q: SemiabelianPoint) -> Optional[SemiabelianPoint]:
    neg = SemiabelianPoint(
        ec_neg(q.ec), tuple(TorusElement(t.base, -t.exponent) for t in q.torus)
    )
    return _point_add(A, p, neg)


def gamma_enumerate(
    G: SubgroupGamma, bound: int, A: AmbientVariety
) -> Iterator[Tuple[Tuple[int, ...], SemiabelianPoint]]:
    """All sums a_1 g_1 + ... + a_k g_k with max |a_i| <= bound, in
    lexicographic coefficient order. (2 bound + 1)^k combinations."""
    if bound < 0:
        raise SemiabelianError("bound must be >= 0")
    gens = [g.on_variety(A) for g in G.generators]
    if G.torus_rank != A.torus_rank:
        raise SemiabelianError("subgroup/ambient torus rank mismatch")
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(gens)):
        total = A.identity()
        for a, g in zip(coeffs, gens):
            if a == 0:
                continue
            step = SemiabelianPoint(
                ec_mul(A.curve, a, g.ec),
                tuple(
                    TorusElement.from_rational(t.rational_value() ** a)
                    for t in g.torus
                ),
            )
            total = _point_add(A, total, step)
        yield coeffs, total


def gamma_eps_certificate(
    A: AmbientVariety,
    x: SemiabelianPoint,
    gamma_point: SemiabelianPoint,
    eps: float,
    tol: float = 1e-9,
) -> BallVerdict:
    """Certify x in Gamma_eps by checking x - gamma in B_eps.

    Unsupported means the componentwise difference left the representable
    class (two algebraic torus values with different bases); the caller
    should pick candidates from the catalog instead."""
    x.on_variety(A)
    gamma_point.on_variety(A)
    diff = _point_sub(A, x, gamma_point)
    if diff is None:
        return BallVerdict.UNSUPPORTED
    return in_B_eps(A, diff, eps, tol)


# ---------------------------------------------------------------------------
# relation loci and membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveRelation:
    """A locus cut out by polynomial equations over Q in (x, y, t_1..t_n).

    Each equation is a map {exponent vector: coefficient}; x, y exponents
    are nonnegative, torus exponents may be negative. Stored equations are
    canonically sorted so equal relations compare equal."""

    equations: Tuple[Tuple[Tuple[Tuple[int, ...], Fraction], ...], ...]
    torus_rank: int

    @classmethod
    def of(cls, equations: Sequence[Dict[Tuple[int, ...], Fraction]],
           torus_rank: int) -> "CurveRelation":
        if not equations:
            raise SemiabelianError("a relation needs at least one equation")
        canon = []
        for eq in equations:
            terms = []
            for exps, coeff in eq.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != 2 + torus_rank:
                    raise SemiabelianError(
                        f"exponent vector {exps} should have length {2 + torus_rank}"
                    )
                if exps[0] < 0 or exps[1] < 0:
                    raise SemiabelianError("x and y exponents must be >= 0")
                coeff = Fraction(coeff)
                if coeff != 0:
                    terms.append((exps, coeff))
            if not terms:
                raise SemiabelianError("an equation is identically zero")
            canon.append(tuple(sorted(terms)))
        return cls(tuple(canon), torus_rank)

    def uses_ec_coordinates(self) -> bool:
        return any(
            exps[0] > 0 or exps[1] > 0
            for eq in self.equations
            for exps, _ in eq
        )


def _exact_eval(eq, xy: Tuple[Fraction, Fraction],
                torus_vals: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for exps, coeff in eq:
        term = coeff * xy[0] ** exps[0] * xy[1] ** exps[1]
        for v, k in zip(torus_vals, exps[2:]):
            term *= v**k
        total += term
    return total


def _slot_polynomial(eq, xy, rational_vals, slot: int) -> Dict[int, Fraction]:
    """The equation as a Laurent polynomial in torus slot `slot`."""
    poly: Dict[int, Fraction] = {}
    for exps, coeff in eq:
        term = coeff * xy[0] ** exps[0] * xy[1] ** exps[1]
        for j, v in rational_vals:
            term *= v ** exps[2 + j]
        k = exps[2 + slot]
        poly[k] = poly.get(k, Fraction(0)) + term
    return {k: c for k, c in poly.items() if c != 0}


def _divisibility_zero(poly: Dict[int, Fraction], t: TorusElement) -> bool:
    """Does the nonzero sum c_k t^k vanish, for t = alpha^e with irreducible
    minpoly?

    Vanishing at one root of an irreducible polynomial is equivalent to the
    minimal polynomial dividing, so the test is exact in both directions."""
    # exponents of alpha itself; shift so they start at zero (alpha != 0)
    shifted = {k * t.exponent: c for k, c in poly.items()}
    low = min(shifted)
    denom = math.lcm(*(c.denominator for c in shifted.values()))
    coeffs = [0] * (max(shifted) - low + 1)
    for k, c in shifted.items():
        coeffs[k - low] = int(c * denom)
    return t.base.minpoly.divides(IntPolynomial(tuple(coeffs)))


def _numeric_eval(eq, xy, torus: Sequence[TorusElement], eps: float):
    """(value, error bound) of one equation with enclosure arithmetic."""
    total = 0j
    err = 0.0
    for exps, coeff in eq:
        term = complex(Fraction(coeff) * xy[0] ** exps[0] * xy[1] ** exps[1])
        rel = 0.0
        for t, k in zip(torus, exps[2:]):
            if k == 0:
                continue
            r = t.rational_value()
            if r is not None:
                term *= complex(r) ** k
                continue
            enc = t.base.enclosure(eps)
            c = complex(float(enc.re), float(enc.im))
            rad = float(enc.radius)
            mag = abs(c)
            if mag <= rad:
                raise SemiabelianError("enclosure of a torus value touched zero")
            term *= c ** (k * t.exponent)
            rel += abs(k * t.exponent) * rad / (mag - rad)
        total += term
        err += abs(term) * (math.expm1(rel) if rel < 1 else math.exp(rel))
    err += (len(eq) + 1) * abs(total) * 2.0**-50  # float rounding slack
    return total, err


def curve_membership(X: CurveRelation, z: SemiabelianPoint,
                     eps: float = 1e-12) -> Membership:
    """Does z satisfy every equation of X?

    Exact verdicts when the coordinates are rational or exactly one torus
    slot is algebraic, by the explorer's class test with r = 1
    (minimal-polynomial divisibility); numeric verdicts with a residual
    otherwise. The identity of E fails any equation that
    mentions x or y, since it has no affine coordinates."""
    if len(z.torus) != X.torus_rank:
        raise SemiabelianError("point/relation torus rank mismatch")
    if z.ec.is_identity and X.uses_ec_coordinates():
        return Membership("ExactNo")
    xy = (z.ec.x, z.ec.y) if not z.ec.is_identity else (Fraction(0), Fraction(0))

    values = [t.rational_value() for t in z.torus]
    algebraic_slots = [i for i, v in enumerate(values) if v is None]
    if len(algebraic_slots) <= 1:
        slot = algebraic_slots[0] if algebraic_slots else None
        t = z.torus[slot] if algebraic_slots else None
        ones = [Fraction(1)] * len(values)
        on = _class_on_locus(X, xy, ones, slot, values, t, {})
        return Membership("ExactYes" if on else "ExactNo")

    worst = 0.0
    for eq in X.equations:
        val, err = _numeric_eval(eq, xy, z.torus, eps)
        if abs(val) > 4.0 * err:
            return Membership("NumericNo", residual=abs(val))
        worst = max(worst, abs(val), err)
    return Membership("NumericYes", residual=worst)


# ---------------------------------------------------------------------------
# the explorer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreConfig:
    """Search budget for explore_theorem.

    gen_bound: coefficient box for Gamma; rou_order: roots of unity up to
    this order enter the catalog; radicals: (r, max_m) families adding
    r^(1/m) for 1 <= m <= max_m; max_search: candidate budget before the
    run is rejected."""

    gen_bound: int = 2
    rou_order: int = 8
    radicals: Tuple[Tuple[Fraction, int], ...] = ()
    tol: float = 1e-9
    max_search: int = 200_000

    def __post_init__(self):
        if self.gen_bound < 0 or self.rou_order < 1:
            raise SemiabelianError("bounds must be nonnegative (rou_order >= 1)")
        object.__setattr__(
            self,
            "radicals",
            tuple((Fraction(r), int(m)) for r, m in self.radicals),
        )
        for r, m in self.radicals:
            if r <= 0 or m < 1:
                raise SemiabelianError("radical families need r > 0 and m >= 1")


def _catalog_torus_values(config: ExploreConfig) -> List[TorusElement]:
    out = []
    for order in range(1, config.rou_order + 1):
        for j in range(1, order + 1):
            if math.gcd(j, order) == 1:
                out.append(TorusElement(root_of_unity(order, j), 1))
    for r, max_m in config.radicals:
        for m in range(1, max_m + 1):
            if m == 1:
                out.append(TorusElement.from_rational(r))
            elif r != 1:
                out.append(TorusElement(radical(r, m), 1))
    return out


def _membership_classes(smalls: Sequence[SemiabelianPoint]):
    """(fallback, classes): the indices of the small points with two or more
    algebraic torus slots, and {T: {key: [slot, values, t, indices]}}, which
    groups the rest by torsion part T, rational torus values `values`, and
    the minimal polynomial and exponent of t, their algebraic value at
    `slot` (None if there is none)."""
    fallback: List[int] = []
    classes: Dict[ECPoint, Dict[tuple, list]] = {}
    for i, z in enumerate(smalls):
        values = [t.rational_value() for t in z.torus]
        algebraic = [j for j, v in enumerate(values) if v is None]
        if len(algebraic) > 1:
            fallback.append(i)
            continue
        slot = algebraic[0] if algebraic else None
        t = z.torus[slot] if algebraic else None
        key = (slot, tuple(values), (t.base.minpoly, t.exponent) if t else None)
        classes.setdefault(z.ec, {}).setdefault(key, [slot, values, t, []])[3].append(i)
    return fallback, classes


def _class_on_locus(X: CurveRelation, xy, rs, slot, values, t,
                    slot_polys: Dict[tuple, list]) -> bool:
    """Exact: is gamma + z on X, for xy the coordinates of gamma.ec + z.ec,
    rs gamma's rational torus values and z in the class (slot, values, t)?

    The sum's slot value is r alpha^e for t = alpha^e, and P(r alpha^e) = 0
    iff minpoly(alpha) divides P(r s) at s = alpha^e: one test for the whole
    Galois orbit, with no point built. A nonzero P with
    (max k - min k) |e| < deg alpha is rejected before any division: the k e
    are distinct, so P(x^e) shifted to start at x^0 is a nonzero polynomial
    of lower degree than minpoly(alpha). slot_polys caches the slot
    polynomials at this xy."""
    if slot is None:
        w = [r * v for r, v in zip(rs, values)]
        return all(_exact_eval(eq, xy, w) == 0 for eq in X.equations)
    rest = tuple((j, r * v) for j, (r, v) in enumerate(zip(rs, values)) if j != slot)
    polys = slot_polys.get((slot, rest))
    if polys is None:
        polys = [_slot_polynomial(eq, xy, rest, slot) for eq in X.equations]
        slot_polys[(slot, rest)] = polys
    r, e, d = rs[slot], abs(t.exponent), t.base.degree
    return all(not p or ((max(p) - min(p)) * e >= d
                         and _divisibility_zero({k: c * r**k for k, c in p.items()}, t))
               for p in polys)


def _modulus_key(r: Fraction, t: TorusElement) -> Tuple[int, Fraction]:
    """(d, |r t|^d) with d the least exponent that makes |r t|^d rational,
    for t a catalog value: a root of unity gives (1, |r|), and a positive
    rational or radical with minimal polynomial c_d x^d + c_0 gives
    (d, |r|^d |c_0 / c_d|) (d is least by Capelli). Catalog values differ
    by a root of unity exactly when their moduli agree, so two hits differ
    by roots of unity in every slot exactly when their keys agree."""
    if t.is_unit_circle():
        return 1, abs(r)
    cs = t.base.minpoly.coeffs
    return len(cs) - 1, abs(r) ** (len(cs) - 1) * abs(Fraction(cs[0], cs[-1]))


def explore_theorem(
    A: AmbientVariety,
    G: SubgroupGamma,
    X: CurveRelation,
    eps: float,
    config: ExploreConfig = ExploreConfig(),
) -> dict:
    """Search X intersect (Gamma + B_eps) over a bounded, declared grid.

    Candidates are x = gamma + z with gamma from the generator box and z
    from the small-point catalog (torsion x catalog torus values), pruned
    by in_B_eps before the gamma loop. Each candidate is decided once: per
    (gamma, torsion point, minimal-polynomial class of z) by the exact
    class test, or, for z with two or more algebraic torus slots, by
    curve_membership's numeric verdict on the built point. Each hit
    carries its (gamma, z) decomposition, that verdict, and z's ball
    verdict In as its Gamma_eps certificate. Hits whose difference is
    torsion x roots of unity share a key, the least point of P + E(Q)_tors
    and the modulus key of each torus slot, and each key is one coset."""
    if eps < 0:
        raise SemiabelianError("eps must be >= 0")
    if X.torus_rank != A.torus_rank or G.torus_rank != A.torus_rank:
        raise SemiabelianError("ambient, subgroup, and relation ranks must agree")
    torsion = torsion_points(A.curve)
    torus_values = _catalog_torus_values(config)
    n, g = A.torus_rank, len(G.generators)
    estimate = len(torsion) * len(torus_values) ** n * (2 * config.gen_bound + 1) ** g
    if estimate > config.max_search:
        raise SearchSpaceError(estimate, config.max_search)

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

    fallback, classes = _membership_classes(smalls)
    exact_yes = Membership("ExactYes")
    hits = []
    groups: Dict[tuple, List[int]] = {}
    curve_keys: Dict[ECPoint, ECPoint] = {}
    for coeffs, gamma in gamma_enumerate(G, config.gen_bound, A):
        rs = [t.rational_value() for t in gamma.torus]
        todo: Dict[int, Optional[Membership]] = dict.fromkeys(fallback)
        for T, members in classes.items():
            ec = ec_add(A.curve, gamma.ec, T)
            if ec.is_identity and X.uses_ec_coordinates():
                continue  # ExactNo: the identity has no affine coordinates
            xy = (ec.x, ec.y) if not ec.is_identity else (Fraction(0), Fraction(0))
            slot_polys: Dict[tuple, list] = {}
            for slot, values, t, indices in members.values():
                if _class_on_locus(X, xy, rs, slot, values, t, slot_polys):
                    todo.update((i, exact_yes) for i in indices)
        for i in sorted(todo):
            z = smalls[i]
            x = _point_add(A, gamma, z)
            verdict = todo[i] or curve_membership(X, x, eps=min(config.tol, 1e-12))
            if not verdict.is_yes:
                continue
            if x.ec not in curve_keys:
                curve_keys[x.ec] = min((ec_add(A.curve, x.ec, T) for T in torsion),
                                       key=lambda p: (p.x is not None, p.x, p.y))
            key = (curve_keys[x.ec],) + tuple(map(_modulus_key, rs, z.torus))
            groups.setdefault(key, []).append(len(hits))
            hits.append(
                {
                    "gamma_coefficients": list(coeffs),
                    "small_point": str(z),
                    "point": str(x),
                    "membership": str(verdict),
                    "exact": verdict.is_exact,
                    "certificate": BallVerdict.IN.value,  # z was kept as In
                }
            )

    return {
        "disclaimer": DISCLAIMER,
        "integrality_note": INTEGRALITY_NOTE,
        "eps": eps,
        "search_size": estimate,
        "catalog_size": len(torus_values),
        "candidates_in_ball": len(smalls),
        "boundary_skipped": boundary_skipped,
        "hit_count": len(hits),
        "hits": hits,
        "cosets": sorted(groups.values()),
    }
