"""Height growth under power maps: the (*) condition and N-functions.

The central condition on a self-map f of a heighted domain is

    (*)  there are r >= 1, M > 0, c > 1 with  h(z) > M  =>  h(f^r(z)) > c h(z).

For z in the domain, N(z) is the smallest N >= 1 with h(f^N(z)) > M
(infinite exactly for preperiodic z, by Northcott). A sequence is "small"
when N(z_i) -> infinity. The four transfer results implemented here show the
notion does not depend on the choices made:

  1) a comparable height h' < e h, h < e' h' satisfies (*) with
     r' = m r (smallest m with c^m > 2 e e'), M' = e M, c' = 2;
  2) N' <= N + p r where p is smallest with (c^p / e') M > M';
  3) for commuting g with the same (r, M, c), and d > 1 bounding
     h(f(z)) < d h(z), N_g <= ceil(log d / log c) * r * N_f;
  4) for psi intertwining f and f' (psi f = f' psi), alpha > 1 bounding
     h'(psi(z)) < alpha h(z), and M' > alpha M:  N'(psi(z)) >= N(z).

Heights are evaluated exactly up to certified error, and the grown heights
m^N h with their error bands meet thresholds as exact rationals (a float is
one, m^N an integer), so no N is too large to decide; an ambiguous
comparison escalates precision and raises rather than return a wrong N.
Supported domains are the multiplicative group (z -> z^m on symbolic torus
elements, height |exponent| * h(base)), elliptic curves (P -> mP with the
canonical height, which scales by m^2 exactly), and their product
(componentwise, mixed linear/quadratic growth). A shift delta turns h into
h + delta; several of the strict bounds above only exist when delta > 0,
mirroring the usual normalization that heights exceed a positive constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .algebraic import TorusElement
from .elliptic import ECPoint, EllipticCurveQ
from .semiabelian import SemiabelianPoint, height_parts, is_torsion_point

__all__ = [
    "DynamicsError",
    "InconclusiveComparisonError",
    "SearchBudgetError",
    "StarParams",
    "HeightedSystem",
    "NValue",
    "verify_star",
    "n_function",
    "is_preperiodic",
    "system_height",
    "classify_small_sequence",
    "empirical_height_comparison",
    "derive_prop1_params",
    "check_prop2",
    "check_prop3",
    "check_prop4",
    "n_ball_membership",
    "n_from_components",
]

DEFAULT_CAP = 64


class DynamicsError(ValueError):
    """Invalid dynamics configuration or computation."""


class InconclusiveComparisonError(DynamicsError):
    """A height/threshold comparison stayed ambiguous after refinement."""


class SearchBudgetError(DynamicsError):
    """A derived parameter search exceeded its budget."""


@dataclass(frozen=True)
class StarParams:
    """The (r, M, c) of condition (*)."""

    r: int
    M: float
    c: float

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise DynamicsError("r must be an integer >= 1")
        object.__setattr__(self, "r", int(self.r))
        if not self.M > 0:
            raise DynamicsError("M must be positive")
        if not self.c > 1:
            raise DynamicsError("c must exceed 1")


@dataclass(frozen=True)
class HeightedSystem:
    """A domain with the componentwise map z -> z^m / P -> mP and the
    shifted height h + delta. star, when set, supplies default (*) params."""

    domain: str
    m: int
    shift: float = 0.0
    curve: Optional[EllipticCurveQ] = None
    tol: float = 1e-10
    star: Optional[StarParams] = None

    def __post_init__(self):
        if self.domain not in ("torus", "elliptic", "product"):
            raise DynamicsError(f"unsupported domain {self.domain!r}")
        if int(self.m) != self.m or self.m < 2:
            raise DynamicsError("map degree m must be an integer >= 2")
        object.__setattr__(self, "m", int(self.m))
        if self.shift < 0:
            raise DynamicsError("shift must be >= 0")
        if self.domain in ("elliptic", "product") and self.curve is None:
            raise DynamicsError(f"{self.domain} domain needs a curve")
        if self.domain == "torus" and self.curve is not None:
            raise DynamicsError("torus domain takes no curve")

    @property
    def growth(self) -> int:
        """Largest exact height multiplier of one application of the map
        (the elliptic factor's m^2 when one is present)."""
        return self.m if self.domain == "torus" else self.m * self.m

    @property
    def growth_low(self) -> int:
        """Smallest height multiplier (the torus factor's m when present)."""
        return self.m * self.m if self.domain == "elliptic" else self.m


Point = Union[TorusElement, ECPoint, SemiabelianPoint]


def _parts(system: HeightedSystem, z: Point):
    """(curve, ec, torus) of z, the arguments of height_parts and
    is_torsion_point: height_parts gives (h_quadratic, err_q, h_linear,
    err_l, exactly_zero), and the height after N steps is
    m^(2N) h_quadratic + m^N h_linear + shift."""
    kind = {"torus": TorusElement, "elliptic": ECPoint,
            "product": SemiabelianPoint}[system.domain]
    if not isinstance(z, kind):
        raise DynamicsError(f"{system.domain} system expects {kind.__name__} points")
    if system.domain == "torus":
        return system.curve, None, (z,)
    if system.domain == "elliptic":
        return system.curve, z, ()
    return system.curve, z.ec, z.torus


def system_height(system: HeightedSystem, z: Point) -> float:
    """The shifted height h(z) + delta."""
    hq, _, hl, _, _ = height_parts(*_parts(system, z), system.tol)
    return hq + hl + system.shift


def is_preperiodic(system: HeightedSystem, z: Point) -> bool:
    """Exact: the forward orbit of z under the map is finite.

    On the torus this happens exactly for roots of unity, on a curve
    exactly for torsion points, and on a product exactly when both hold
    (each follows from strict height growth); no height is computed."""
    return is_torsion_point(*_parts(system, z))


# ---------------------------------------------------------------------------
# threshold comparisons with certified margins
# ---------------------------------------------------------------------------


def _exceeds(value, err, threshold) -> Optional[bool]:
    """value > threshold given |true - value| <= err; None if ambiguous."""
    if value - err > threshold:
        return True
    if value + err <= threshold:
        return False
    return None


def n_from_components(
    quadratic: Tuple[float, float],
    linear: Tuple[float, float],
    m: int,
    shift: float,
    M: float,
    cap: int,
    preperiodic: bool,
) -> "NValue":
    """Smallest N >= 1 with m^(2N) hq + m^N hl + shift > M, from certified
    component heights (value, error), grown exactly so that no step
    overflows or rounds. The backbone for mixed products.

    The five inputs and M are scaled to integers over one common
    denominator (a power of two for floats), so every step is integer
    arithmetic; no finite height exceeds M = inf."""
    if preperiodic:
        return NValue.preperiodic()
    if M == math.inf:
        return NValue.cap_exceeded()
    ratios = [x.as_integer_ratio() for x in (*quadratic, *linear, shift, M)]
    den = math.lcm(*(b for _, b in ratios))
    hq, eq, hl, el, base, big_m = (a * (den // b) for a, b in ratios)
    mn = 1
    for n in range(1, cap + 1):
        mn *= m
        verdict = _exceeds(mn * (mn * hq + hl) + base, mn * (mn * eq + el), big_m)
        if verdict is None:
            raise InconclusiveComparisonError(
                f"height vs threshold M={M} ambiguous at step {n}; "
                "refine the height tolerance"
            )
        if verdict:
            return NValue.finite(n)
    return NValue.cap_exceeded()


@dataclass(frozen=True)
class NValue:
    """N(z): finite, infinite (preperiodic), or beyond the search cap."""

    kind: str
    n: Optional[int] = None

    @classmethod
    def finite(cls, n: int) -> "NValue":
        return cls("finite", int(n))

    @classmethod
    def preperiodic(cls) -> "NValue":
        return cls("preperiodic")

    @classmethod
    def cap_exceeded(cls) -> "NValue":
        return cls("cap_exceeded")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def exceeds(self, bound: float) -> bool:
        """True when N > bound, counting preperiodic and capped as large."""
        if self.kind == "finite":
            return self.n > bound
        return True

    def __str__(self):
        return str(self.n) if self.kind == "finite" else self.kind


def _star_of(system: HeightedSystem, star: Optional[StarParams]) -> StarParams:
    got = star if star is not None else system.star
    if got is None:
        raise DynamicsError("no (*) parameters: pass star or set system.star")
    return got


def n_function(
    system: HeightedSystem,
    z: Point,
    star: Optional[StarParams] = None,
    cap: int = DEFAULT_CAP,
) -> NValue:
    """N(z): smallest N >= 1 with h(f^N(z)) > M, threshold M from star
    (falling back to the system's embedded star).

    Exact modulo certified comparisons: the height of f^N(z) is computed by
    exact exponent scaling, never by iterating coordinates. Ambiguous
    comparisons retry at sharper tolerance before raising."""
    star = _star_of(system, star)
    if cap < 1:
        raise DynamicsError("cap must be >= 1")
    tol = system.tol
    for _ in range(3):
        hq, eq, hl, el, zero = height_parts(*_parts(system, z), tol)
        if zero:
            return NValue.preperiodic()
        try:
            return n_from_components((hq, eq), (hl, el), system.m,
                                     system.shift, star.M, cap, False)
        except InconclusiveComparisonError:
            tol /= 1024.0
    raise InconclusiveComparisonError(
        f"N-value of {z} stayed ambiguous at tolerance {tol}"
    )


# ---------------------------------------------------------------------------
# the (*) condition
# ---------------------------------------------------------------------------


class _Report:
    """as_dict() of a check's report: its fields plus the verdict `holds`."""

    def as_dict(self) -> dict:
        return dict(asdict(self), holds=self.holds)


@dataclass(frozen=True)
class StarReport(_Report):
    holds: bool
    analytic_ok: bool
    checked: int
    vacuous: int
    violations: list
    delta: float = 0.0


def verify_star(
    system: HeightedSystem,
    star: Optional[StarParams] = None,
    samples: Sequence[Point] = (),
) -> StarReport:
    """Check (*) for the power map, both analytically and on samples.

    One application multiplies the unshifted height by G (= m on the torus,
    m^2 on a curve; the guaranteed factor is m on a product, where the torus
    part dominates the bound), so with h_delta = h + delta:

        h_delta(f^r(z)) >= G^r h_delta(z) - (G^r - 1) delta,

    with equality on torus and elliptic points. (*) therefore holds for all
    points iff c < G^r and (G^r - c) M >= (G^r - 1) delta. Samples are then
    checked individually with their exact component growth (vacuous for
    h_delta <= M), so a bad configuration also produces concrete witnesses."""
    star = _star_of(system, star)
    Gr = system.growth_low**star.r
    c, M, delta = map(Fraction, (star.c, star.M, system.shift))
    analytic_ok = c < Gr and (Gr - c) * M >= (Gr - 1) * delta

    ml = system.m**star.r
    violations = []
    checked = vacuous = 0
    for z in samples:
        *parts, _ = height_parts(*_parts(system, z), system.tol)
        hq, eq, hl, el = map(Fraction, parts)
        hd = hq + hl + delta
        err = eq + el
        above = _exceeds(hd, err, M)
        if above is None:
            raise InconclusiveComparisonError(f"sample {z} sits on the threshold M")
        if not above:
            vacuous += 1
            continue
        checked += 1
        lhs = ml * (ml * hq + hl) + delta
        rhs = c * hd
        grows = _exceeds(lhs, ml * (ml * eq + el) + c * err, rhs)
        if grows is None:
            raise InconclusiveComparisonError(
                f"(*) marginal on sample {z}; refine tolerances"
            )
        if not grows:
            violations.append({"sample": str(z), "lhs": float(lhs),
                               "rhs": float(rhs), "height": float(hd)})
    holds = analytic_ok and not violations
    return StarReport(holds, analytic_ok, checked, vacuous, violations, system.shift)


# ---------------------------------------------------------------------------
# small sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallSequenceReport:
    n_values: List[NValue]
    heights: List[float]
    n_diverges: bool
    heights_to_zero: bool
    preperiodic_count: int

    @property
    def is_small_sequence(self) -> bool:
        return self.n_diverges

    def as_dict(self) -> dict:
        return dict(asdict(self), n_values=[str(n) for n in self.n_values],
                    is_small_sequence=self.is_small_sequence)


def classify_small_sequence(
    system: HeightedSystem,
    points: Sequence[Point],
    star: StarParams,
    cap: int = DEFAULT_CAP,
) -> SmallSequenceReport:
    """Tabulate N(z_i) and h(z_i) and report trend verdicts.

    The verdicts are trend heuristics over the given prefix (a finite sample
    cannot prove a limit): preperiodic and capped entries count as infinite,
    and N "diverges" when the tail tenth sits clearly above the head tenth.
    Heights "go to zero" when the tail tenth has collapsed relative to the
    peak. On the almost split domains here the two verdicts should agree."""
    if not points:
        raise DynamicsError("empty sequence")
    nvals = [n_function(system, z, star, cap) for z in points]
    heights = [system_height(system, z) - system.shift for z in points]
    k = max(1, len(points) // 10)
    eff = [float(n.n) if n.is_finite else math.inf for n in nvals]
    prep = sum(1 for n in nvals if n.kind == "preperiodic")
    head = max((v for v in eff[:k] if v < math.inf), default=0.0)
    tail = min(eff[-k:])
    n_diverges = tail >= max(head + 2, 4)
    hmax = max(heights)
    heights_to_zero = hmax == 0.0 or (
        max(heights[-k:]) <= 0.2 * max(heights[:k])
        and max(heights[-k:]) <= 0.05 * hmax
    )
    return SmallSequenceReport(nvals, heights, n_diverges, heights_to_zero, prep)


# ---------------------------------------------------------------------------
# proposition part 1: transferring (*) to a comparable height
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightComparison:
    e: float
    e_prime: float
    pairs: List[Tuple[float, float]]


def empirical_height_comparison(
    system_a: HeightedSystem, system_b: HeightedSystem, samples: Sequence[Point]
) -> HeightComparison:
    """Largest observed ratios h_b/h_a and h_a/h_b over the samples.

    Empirical lower estimates of the comparability constants e, e' in
    h_b < e h_a, h_a < e' h_b; both shifted heights must stay positive."""
    pairs = []
    e = e_prime = 0.0
    for z in samples:
        ha = system_height(system_a, z)
        hb = system_height(system_b, z)
        if ha <= 0 or hb <= 0:
            raise DynamicsError(
                "height comparison needs positive shifted heights; "
                "use a positive shift"
            )
        pairs.append((ha, hb))
        e = max(e, hb / ha)
        e_prime = max(e_prime, ha / hb)
    if not pairs:
        raise DynamicsError("no samples to compare")
    return HeightComparison(e, e_prime, pairs)


def derive_prop1_params(star: StarParams, e: float, e_prime: float) -> StarParams:
    """(*) parameters for a comparable height h' with h' < e h, h < e' h'.

    Recipe: M' = e M, c' = 2, r' = m r for the smallest m with
    c^m > 2 e e'; then h'(z) > M' forces h(z) > M and

        h'(f^(r')(z)) > h(f^(r')(z))/e' > c^m h(z)/e' > (c^m/(e e')) h'(z)
                      > 2 h'(z)."""
    if e < 1 or e_prime < 1:
        raise DynamicsError("comparison constants must be >= 1")
    target = 2.0 * e * e_prime
    m = 1
    power = star.c
    while power <= target:
        m += 1
        power *= star.c
        if m > 4096:
            raise SearchBudgetError("no multiple m with c^m > 2 e e' within budget")
    return StarParams(r=m * star.r, M=e * star.M, c=2.0)


# ---------------------------------------------------------------------------
# proposition part 2: N-functions for two thresholds differ boundedly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prop2Report(_Report):
    p: int
    offset: int
    rows: List[dict]
    violations: List[dict]
    delta: float = 0.0

    @property
    def holds(self) -> bool:
        return not self.violations


def check_prop2(
    system: HeightedSystem,
    star: StarParams,
    m_prime: float,
    e_prime: float,
    samples: Sequence[Point],
    cap: int = DEFAULT_CAP,
) -> Prop2Report:
    """N' <= N + p r for the second threshold M', where p is smallest with
    (c^p / e') M > M'. h' is the comparable height with h <= e' h'; for the
    same height take e' = 1."""
    if e_prime < 1:
        raise DynamicsError("e_prime must be >= 1")
    if not m_prime > 0:
        raise DynamicsError("M' must be positive")
    p = 1
    power = star.c
    while power * star.M / e_prime <= m_prime:
        p += 1
        power *= star.c
        if p > 4096:
            raise SearchBudgetError("no p with (c^p/e') M > M' within budget")
    offset = p * star.r
    star_prime = StarParams(star.r, m_prime, star.c)
    rows, violations = [], []
    for z in samples:
        n = n_function(system, z, star, cap)
        n2 = n_function(system, z, star_prime, cap)
        row = {"sample": str(z), "n": str(n), "n_prime": str(n2)}
        rows.append(row)
        if n.is_finite and n2.is_finite and n2.n > n.n + offset:
            violations.append(row)
        if n.is_finite != n2.is_finite and not (
            n.kind == "cap_exceeded" or n2.kind == "cap_exceeded"
        ):
            violations.append(row)
    return Prop2Report(p, offset, rows, violations, system.shift)


# ---------------------------------------------------------------------------
# proposition part 3: commuting maps give the same small sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prop3Report(_Report):
    d: float
    d_valid: bool
    factor: int
    rows: List[dict]
    violations: List[dict]
    delta: float = 0.0

    @property
    def holds(self) -> bool:
        return self.d_valid and not self.violations


def check_prop3(
    system_f: HeightedSystem,
    system_g: HeightedSystem,
    star: StarParams,
    d: float,
    samples: Sequence[Point],
    cap: int = DEFAULT_CAP,
) -> Prop3Report:
    """N_g <= ceil(log d / log c) * r * N_f for commuting f, g sharing (*).

    d must satisfy h(f(z)) < d h(z) strictly for every z; for the power map
    with growth G and shift delta this holds exactly when d >= G and
    delta > 0 (the shift is what makes it strict at height-zero points).
    Power maps on a common domain always commute."""
    if system_f.domain != system_g.domain or system_f.curve != system_g.curve:
        raise DynamicsError("part 3 needs commuting maps on one domain")
    if system_f.shift != system_g.shift:
        raise DynamicsError("the maps must share one shifted height")
    if not d > 1:
        raise DynamicsError("d must exceed 1")
    G = system_f.growth
    delta = system_f.shift
    d_valid = d >= G and delta > 0
    factor = math.ceil(math.log(d) / math.log(star.c)) * star.r
    rows, violations = [], []
    for z in samples:
        nf = n_function(system_f, z, star, cap)
        ng = n_function(system_g, z, star, cap)
        row = {"sample": str(z), "n_f": str(nf), "n_g": str(ng)}
        rows.append(row)
        if nf.is_finite and ng.is_finite and ng.n > factor * nf.n:
            violations.append(row)
        if nf.kind == "preperiodic" and ng.kind == "finite":
            violations.append(row)
        if ng.kind == "preperiodic" and nf.kind == "finite":
            violations.append(row)
    return Prop3Report(d, d_valid, factor, rows, violations, delta)


# ---------------------------------------------------------------------------
# proposition part 4: intertwined maps pull small sequences forward
# ---------------------------------------------------------------------------

PSI_KINDS = ("include", "diagonal", "power")


@dataclass(frozen=True)
class Prop4Report(_Report):
    psi: str
    alpha: float
    m_prime_ok: bool
    rows: List[dict]
    violations: List[dict]
    equalities: int
    delta: float = 0.0

    @property
    def holds(self) -> bool:
        return self.m_prime_ok and not self.violations


def _psi_alpha(kind: str, k: int, delta: float, delta_prime: float) -> float:
    """alpha > 1 with h'(psi(z)) < alpha h(z) for the catalog morphisms.

    include: h'(psi z) = h(z) + delta';  diagonal: 2 h(z) + delta';
    power k (torus): |k| h(z) + delta'. Each needs delta > 0 so the bound
    is strict at height-zero points."""
    if delta <= 0:
        raise DynamicsError("psi height bounds need a positive source shift")
    if kind == "include":
        base = max(1.0, delta_prime / delta)
    elif kind == "diagonal":
        base = max(2.0, delta_prime / delta)
    elif kind == "power":
        if k == 0:
            raise DynamicsError("psi power exponent must be nonzero")
        base = max(float(abs(k)), delta_prime / delta)
    else:
        raise DynamicsError(f"unsupported psi kind {kind!r}; use one of {PSI_KINDS}")
    return base * (1 + 1e-6)


def check_prop4(
    psi_kind: str,
    system: HeightedSystem,
    system_prime: HeightedSystem,
    star: StarParams,
    m_prime: float,
    samples: Sequence[Point],
    k: int = 1,
    cap: int = DEFAULT_CAP,
) -> Prop4Report:
    """N'(psi(z)) >= N(z) when M' > alpha M and h'(psi z) < alpha h(z).

    The intertwining psi f = f' psi is symbolic for the catalog morphisms
    (inclusion, diagonal, k-th power on the torus): they commute with all
    power maps of the same degree m, which is required of the two systems."""
    if system.m != system_prime.m:
        raise DynamicsError("psi intertwines power maps of equal degree only")
    if psi_kind == "power" and system.domain != "torus":
        raise DynamicsError("power psi is a torus morphism")
    alpha = _psi_alpha(psi_kind, k, system.shift, system_prime.shift)
    m_prime_ok = m_prime > alpha * star.M
    star_prime = StarParams(star.r, m_prime, star.c)
    rows, violations = [], []
    equalities = 0
    scale = {"include": 1, "diagonal": 2, "power": abs(k)}[psi_kind]
    for z in samples:
        n = n_function(system, z, star, cap)
        hq, eq, hl, el, zero = height_parts(*_parts(system, z), system.tol)
        # h' of psi(z) evolves componentwise as m^{2N} / m^N times scale
        n2 = n_from_components(
            (scale * hq, scale * eq),
            (scale * hl, scale * el),
            system_prime.m,
            system_prime.shift,
            star_prime.M,
            cap,
            zero,
        )
        row = {"sample": str(z), "n": str(n), "n_psi": str(n2)}
        rows.append(row)
        if n.is_finite and n2.is_finite:
            if n2.n < n.n:
                violations.append(row)
            elif n2.n == n.n:
                equalities += 1
        if n.kind == "preperiodic" and n2.kind == "finite":
            violations.append(row)
    return Prop4Report(psi_kind, alpha, m_prime_ok, rows, violations, equalities,
                       system.shift)


# ---------------------------------------------------------------------------
# membership in the small-point balls B_eps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallMembership:
    member: bool
    n_value: NValue
    threshold: float


def n_ball_membership(
    system: HeightedSystem,
    z: Point,
    eps: float,
    star: Optional[StarParams] = None,
    cap: int = DEFAULT_CAP,
) -> BallMembership:
    """z lies in B_eps = {N(z) > 1/eps}; preperiodic points always do.

    If the finite cap cannot settle the comparison (cap <= 1/eps with the
    search exhausted), the cap must be raised; that outcome is reported as a
    SearchBudgetError rather than a guess."""
    if not eps > 0:
        raise DynamicsError("eps must be positive")
    bound = 1.0 / eps
    n = n_function(system, z, star, cap)
    if n.kind == "cap_exceeded" and cap <= bound:
        raise SearchBudgetError(
            f"cap {cap} cannot decide N > {bound}; raise the cap"
        )
    return BallMembership(n.exceeds(bound), n, bound)
