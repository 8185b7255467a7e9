"""Elliptic curves over Q: exact group law and certified canonical heights.

Curves are short Weierstrass y^2 = x^3 + a x + b with rational a, b; points
carry exact rational coordinates. The canonical height is the duplication
limit

    hhat(P) = lim 4^(-n) h(x(2^n P))

where h(p/q) = log max(|p|, |q|). The tail after n steps is bounded by
C(E)/(3*4^n), with the envelope constant C(E) coming from explicit Bezout
identities between the duplication forms:

    F(p, q) = p^4 - 2 a p^2 q^2 - 8 b p q^3 + a^2 q^4
    G(p, q) = 4 q (p^3 + a p q^2 + b q^3)
    x(2P)   = F(p, q) / G(p, q)            for x(P) = p/q in lowest terms.

Evaluating the limit naively needs integers of astronomically many digits,
so after an exact big-integer prefix the orbit continues in integer balls
scaled by powers of two, while the cancellation g_k = gcd(F, G) is tracked
exactly through l-adic residues: g_k divides the Bezout resultant R1, so
only primes l | R1 cancel, their valuations read off residues of p_k, q_k
modulo l^K, and the height is an exact sum of multiples of log 2 and of
the log l, plus one final log. The exact prefix uses the same fact: g_k is
coprime to q (F = p^4 mod q, gcd(p, q) = 1) and divides R1 q^7, so it is
gcd(R1, F mod R1, G mod R1), a reduction instead of a full-width gcd.
Only the step n where tail and ball width meet the tolerance is evaluated:
the certificate is that one value and its error bound.

Torsion is decided by Nagell-Lutz without the group law: on the integral
model a torsion point has integer coordinates with y = 0 or
y^2 | 4A^3 + 27B^2, and so has every point of its doubling orbit, which
the duplication forms walk in integers; a point failing either is not
torsion, and reaching y = 0 or a repeated x shows that P is torsion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from mpmath import iv, mp, mpf

from .algebraic import _ContextError

__all__ = [
    "EllipticError",
    "SingularCurveError",
    "OffCurveError",
    "CanonicalHeightBudgetError",
    "EllipticCurveQ",
    "ECPoint",
    "DuplicationEnvelope",
    "ec_neg",
    "ec_add",
    "ec_mul",
    "naive_height",
    "canonical_height",
    "is_torsion",
    "torsion_points",
    "duplication_envelope",
]


class EllipticError(ValueError):
    """Invalid elliptic-curve construction or computation."""


class SingularCurveError(EllipticError):
    """Discriminant vanishes."""


class OffCurveError(EllipticError):
    """Point does not satisfy the curve equation."""


class CanonicalHeightBudgetError(EllipticError, _ContextError):
    """Certified height evaluation exceeded its precision/size budget; the
    attributes A, B, p0_bits, q0_bits, tol, n_target, dps, prefix_bits
    and the message reproduce the failing call."""


@dataclass(frozen=True)
class EllipticCurveQ:
    """y^2 = x^3 + a x + b with rational coefficients, nonsingular."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.discriminant == 0:
            raise SingularCurveError(f"discriminant vanishes for a={self.a}, b={self.b}")

    @property
    def discriminant(self) -> Fraction:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def contains(self, x: Fraction, y: Fraction) -> bool:
        return y * y == x**3 + self.a * x + self.b

    def integral_model(self) -> Tuple["EllipticCurveQ", int]:
        """Smallest u with (u^4 a, u^6 b) integral; map is x -> u^2 x."""
        if self.a.denominator == self.b.denominator == 1:
            return self, 1
        va, vb = _factor(self.a.denominator), _factor(self.b.denominator)
        u = math.prod(ell ** max(-(-va.get(ell, 0) // 4), -(-vb.get(ell, 0) // 6))
                      for ell in {**va, **vb})
        return EllipticCurveQ(self.a * u**4, self.b * u**6), u


@dataclass(frozen=True)
class ECPoint:
    """Affine rational point or the identity (x = y = None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise EllipticError("both coordinates or neither")
        if self.x is not None:
            object.__setattr__(self, "x", Fraction(self.x))
            object.__setattr__(self, "y", Fraction(self.y))

    @classmethod
    def identity(cls) -> "ECPoint":
        return cls(None, None)

    @classmethod
    def of(cls, x, y) -> "ECPoint":
        return cls(Fraction(x), Fraction(y))

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __str__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def require_on_curve(curve: EllipticCurveQ, point: ECPoint) -> ECPoint:
    if not point.is_identity and not curve.contains(point.x, point.y):
        raise OffCurveError(f"{point} is not on y^2 = x^3 + {curve.a}x + {curve.b}")
    return point


def ec_neg(point: ECPoint) -> ECPoint:
    if point.is_identity:
        return point
    return ECPoint(point.x, -point.y)


def ec_add(curve: EllipticCurveQ, p: ECPoint, q: ECPoint) -> ECPoint:
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    if p.x == q.x:
        if p.y + q.y == 0:
            return ECPoint.identity()
        # doubling; p.y == q.y != 0 here
        lam = (3 * p.x * p.x + curve.a) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return ECPoint(x3, y3)


def ec_mul(curve: EllipticCurveQ, k: int, point: ECPoint) -> ECPoint:
    k = int(k)
    if k < 0:
        return ec_mul(curve, -k, ec_neg(point))
    acc = ECPoint.identity()
    add = point
    while k:
        if k & 1:
            acc = ec_add(curve, acc, add)
        k >>= 1
        if k:
            add = ec_add(curve, add, add)
    return acc


def naive_height(point: ECPoint) -> float:
    """log max(|numerator|, denominator) of the x coordinate; 0 for O."""
    if point.is_identity:
        return 0.0
    n, d = abs(point.x.numerator), point.x.denominator
    with mp.workdps(30):
        return float(mp.log(mpf(max(n, d))))


def is_torsion(curve: EllipticCurveQ, point: ECPoint) -> bool:
    """Exact torsion test by Nagell-Lutz (Silverman, AEC VIII.7.2).

    Mapped to the integral model y^2 = x^3 + A x + B by (u^2 x, u^3 y), a
    torsion point has integer coordinates with y = 0 or y^2 | 4A^3 + 27B^2,
    and so has each point of its doubling orbit P, 2P, 4P, ...
    _doubling_orbit_torsion walks that orbit in integers and decides both
    ways; torsion_points decides its candidates with the same walk. No
    group-law step is taken.
    """
    require_on_curve(curve, point)
    if point.is_identity:
        return True
    # y is an integer whenever x is: y^2 = x^3 + A x + B
    A, B, x, q = _integral_x(curve, point)
    return q == 1 and _doubling_orbit_torsion(A, B, x)


def _doubling_orbit_torsion(A: int, B: int, x: int) -> bool:
    """Is the integral point with abscissa x on y^2 = x^3 + A x + B torsion?

    Nagell-Lutz is applied along x(P), x(2P), x(4P), ... in integers: a
    failing point makes P non-torsion; reaching y = 0 (2-torsion) or a
    repeated x (2^a P = +-2^b P, a != b) makes it torsion. A non-torsion
    orbit never repeats an x, and only finitely many x pass the test, so
    the walk ends."""
    disc = abs(4 * A**3 + 27 * B**2)
    seen = set()
    while x not in seen:
        seen.add(x)
        F, G = _dup_forms(A, B, x, 1)  # G = 4 y^2
        if G == 0:
            return True
        if disc % (G // 4) or F % G:
            return False
        x = F // G
    return True


# ---------------------------------------------------------------------------
# duplication envelope via Bezout identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DuplicationEnvelope:
    """Constants with |h(x(2P)) - 4 h(x(P))| <= C for all rational P (2P != O).

    R1, R2 are the cleared-denominator Bezout constants:
      U1*F + V1*G = R1 * q^7   and   U2*F + V2*G = R2 * p^7
    with integer coefficient forms U*, V*; gcd(F, G) divides R1.
    R1_factors (prime, exponent) and the witness primes (near 2^61, not
    dividing R1) serve the integer-ball continuation's residue trackers,
    whose valuations of g_k set the height's log l coefficients.
    """

    C: float
    R1: int
    R2: int
    R1_factors: Tuple[Tuple[int, int], ...]
    witnesses: Tuple[int, ...]


def _clear_bezout(f, g):
    """Integer Bezout data for coprime f, g in Z[y] (coefficient lists,
    constant term first) by extended Euclid over Q: (U, V, R) with
    U f + V g = R, deg U < deg g, deg V < deg f, R a positive integer."""
    r0, s0, t0 = _trim([Fraction(c) for c in f]), [1], []
    r1, s1, t1 = _trim([Fraction(c) for c in g]), [], [1]
    while r1:
        while len(r0) >= len(r1):  # one quotient term at a time
            q = [0] * (len(r0) - len(r1)) + [r0[-1] / r1[-1]]
            r0, s0, t0 = [_minus_product(a, q, b) for a, b in ((r0, r1), (s0, s1), (t0, t1))]
        (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r0, s0, t0)
    if len(r0) != 1:
        raise SingularCurveError("duplication forms share a factor")
    s, t = [x / r0[0] for x in s0], [x / r0[0] for x in t0]
    L = math.lcm(*(x.denominator for x in s + t))
    return [int(x * L) for x in s], [int(x * L) for x in t], L


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _minus_product(a: list, q: list, b: list) -> list:
    """a - q b on coefficient lists, constant term first."""
    out = a + [0] * (len(q) + len(b) - 1 - len(a))
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            out[i + j] -= x * y
    return _trim(out)


@lru_cache(maxsize=128)
def _envelope_cached(A: int, B: int) -> DuplicationEnvelope:
    U1, V1, R1 = _clear_bezout([A * A, -8 * B, -2 * A, 0, 1], [4 * B, 4 * A, 0, 4])
    D1 = sum(abs(c) for c in U1) + sum(abs(c) for c in V1)
    # reversed forms: identities in p instead of q
    U2, V2, R2 = _clear_bezout([1, 0, -2 * A, -8 * B, A * A], [0, 4, 0, 4 * A, 4 * B])
    D2 = sum(abs(c) for c in U2) + sum(abs(c) for c in V2)
    c_upper = max(1 + 2 * abs(A) + 8 * abs(B) + A * A, 4 * (1 + abs(A) + abs(B)))
    with mp.workdps(30):
        C = float(
            max(mp.log(c_upper), mp.log(D1), mp.log(mpf(D2) * R1 / R2)) * (1 + mpf(1e-12))
        )
    return DuplicationEnvelope(C, R1, R2, tuple(_factor(R1).items()),
                               tuple(_witness_primes(R1)))


def duplication_envelope(curve: EllipticCurveQ) -> DuplicationEnvelope:
    """Envelope for the integral model of the curve."""
    icurve, _ = curve.integral_model()
    return _envelope_cached(int(icurve.a), int(icurve.b))


# ---------------------------------------------------------------------------
# certified canonical height
# ---------------------------------------------------------------------------

_PREFIX_BITS = 1 << 15
_PREFIX_BITS_MAX = 1 << 21


def _dup_forms(A: int, B: int, p: int, q: int) -> Tuple[int, int]:
    """F = p^4 - 2A p^2 q^2 - 8B p q^3 + A^2 q^4 and G = 4q(p^3 + A p q^2 + B q^3),
    the numerator and denominator of x(2P) for x(P) = p/q, in 7 big products."""
    p2, q2, pq = p * p, q * q, p * q
    q4, pq3 = q2 * q2, pq * q2
    F = p2 * (p2 - 2 * A * q2) - 8 * B * pq3 + A * A * q4
    G = 4 * (pq * (p2 + A * q2) + B * q4)
    return F, G


class _ResidueTracker:
    """Exact residues of the duplication orbit modulo ell^K.

    Division by the cancellation g consumes v_ell(g) digits of precision per
    step; K is provisioned so at least c_ell + 2 digits always remain, which
    is enough to read valuations (they never exceed c_ell = v_ell(R1)).
    """

    def __init__(self, ell: int, c_ell: int, steps: int, p0: int, q0: int):
        self.ell = ell
        self.c = c_ell
        self.known = (steps + 2) * c_ell + 8
        m = ell**self.known
        self.p = p0 % m
        self.q = q0 % m

    def valuations(self, A: int, B: int):
        """(vF, vG) read from residues; None means >= readable precision."""
        m = self.ell**self.known
        F, G = _dup_forms(A, B, self.p, self.q)
        F %= m
        G %= m
        self._F, self._G = F, G
        return (_residue_val(F, self.ell), _residue_val(G, self.ell))

    def advance(self, g: int, e_self: int):
        """Divide the stored F, G residues by g and step; g = ell^e_self * unit."""
        self.known -= e_self
        m = self.ell**self.known
        unit = g // self.ell**e_self
        inv = pow(unit, -1, m)
        self.p = (self._F // self.ell**e_self) * inv % m
        self.q = (self._G // self.ell**e_self) * inv % m


def _residue_val(r: int, ell: int) -> Optional[int]:
    """v_ell(r); None for r = 0."""
    if r == 0:
        return None
    v = 0
    while r % ell == 0:
        r //= ell
        v += 1
    return v


class _WitnessTracker:
    """Residues modulo a large prime not dividing R1; certifies F != 0."""

    def __init__(self, w: int, p0: int, q0: int):
        self.w = w
        self.p = p0 % w
        self.q = q0 % w

    def forms(self, A: int, B: int) -> Tuple[int, int]:
        F, G = _dup_forms(A, B, self.p, self.q)
        self._F, self._G = F % self.w, G % self.w
        return self._F, self._G

    def advance(self, g: int):
        inv = pow(g % self.w, -1, self.w)
        self.p = self._F * inv % self.w
        self.q = self._G * inv % self.w


class _SuspectedExactZero(Exception):
    """The ball continuation could not certify F != 0; extend the prefix."""


def _witness_primes(R1: int, count: int = 3) -> List[int]:
    out, w = [], 1 << 61
    while len(out) < count:
        w += 1
        if _is_prime(w) and R1 % w != 0:
            out.append(w)
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # psi_13: the 13 bases decide every n below it


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _MR_LIMIT (Sorenson and Webster,
    Math. Comp. 86, 2017)."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _factor(n: int) -> dict:
    """{prime: exponent} of n >= 1, primes increasing: trial division below
    2^12, Miller-Rabin on the cofactor, sympy only for a composite cofactor
    with no factor below 2^12."""
    out, d = {}, 2
    while d * d <= n and d < 1 << 12:
        while n % d == 0:
            out[d], n = out.get(d, 0) + 1, n // d
        d += 1 if d == 2 else 2
    if d * d <= n and not (n < _MR_LIMIT and _is_prime(n)):
        import sympy  # general factoring only: sympy stays off the import path
        return {**out, **{int(p): e for p, e in sorted(sympy.factorint(n).items())}}
    return {**out, n: 1} if n > 1 else out


def _interval_continue(A, B, p0, q0, start, n_target, env, dps):
    """Continue the duplication orbit from exact (p0, q0) in integer balls.

    (p_k, q_k) = S_k (ph, qh), ph and qh balls (centre, radius) at scale 2^-w,
    w the precision of dps. Renormalising F, G by 2^e keeps w bits in the
    larger centre: S_{k+1} = S_k^4 2^e / g_k, so log S_n sums exact multiples
    of log 2 and of log l, l | R1. Returns the interval for 4^-n h_n at
    n = n_target, None on precision loss, or raises _SuspectedExactZero if
    F = 0 may hold.
    """
    steps = n_target - start
    trackers = [_ResidueTracker(ell, c, steps, p0, q0) for ell, c in env.R1_factors]
    witnesses = [_WitnessTracker(w, p0, q0) for w in env.witnesses]

    old_prec = iv.prec
    try:
        iv.dps = dps
        w = iv.prec
        s = max(abs(p0), abs(q0)).bit_length() - w
        ph, qh = _ball_shift((p0, 0), s), _ball_shift((q0, 0), s)
        # log S_k = sum of coef[l] * log l over 2 and the primes of R1
        coef = {**dict.fromkeys((t.ell for t in trackers), 0), 2: s + w}
        for _ in range(steps):
            F, G = _ball_forms(A, B, ph, qh, w)
            wf = [t.forms(A, B) for t in witnesses]
            if abs(F[0]) <= F[1] and all(f == 0 for f, _ in wf):
                raise _SuspectedExactZero()
            g, vals = 1, []
            for t in trackers:
                vF, vG = t.valuations(A, B)
                if vF is None and vG is None:
                    # impossible for F != 0 since min(vF, vG) <= c_ell
                    raise _SuspectedExactZero()
                e = min(v for v in (vF, vG, t.c) if v is not None)
                vals.append(e)
                g *= t.ell**e
            for ell in coef:
                coef[ell] *= 4
            for t, e in zip(trackers, vals):
                t.advance(g, e)
                coef[t.ell] -= e
            for t in witnesses:
                t.advance(g)
            if max(abs(F[0]) - F[1], abs(G[0]) - G[1]) <= 0:
                return None  # precision loss; retry at higher dps
            e = max(abs(F[0]), abs(G[0])).bit_length() - w
            ph, qh = _ball_shift(F, e), _ball_shift(G, e)
            coef[2] += e
        lo = max(abs(ph[0]) - ph[1], abs(qh[0]) - qh[1])
        if lo <= 0:
            return None
        coef[2] -= w
        H = iv.log(iv.mpf([lo, max(abs(ph[0]) + ph[1], abs(qh[0]) + qh[1])]))
        H += sum(c * iv.log(ell) for ell, c in coef.items() if c)
        return H / iv.mpf(4) ** n_target
    finally:
        iv.prec = old_prec


def _ball_shift(ball, e):
    """The integer ball (c, r) divided by 2^e; 2 ulp cover the floors."""
    c, r = ball
    return (c << -e, r << -e) if e <= 0 else (c >> e, (r >> e) + 2)


def _ball_forms(A, B, ph, qh, w):
    """Balls for F(ph, qh) and G(ph, qh), all at scale 2^-w."""

    def mul(x, y):
        (a, ra), (b, rb) = x, y
        return (a * b) >> w, ((abs(a) * rb + abs(b) * ra + ra * rb) >> w) + 2

    p2, q2, pq = mul(ph, ph), mul(qh, qh), mul(ph, qh)
    p4, p2q2, p3q, pq3, q4 = mul(p2, p2), mul(p2, q2), mul(p2, pq), mul(pq, q2), mul(q2, q2)
    F = (p4[0] - 2 * A * p2q2[0] - 8 * B * pq3[0] + A * A * q4[0],
         p4[1] + 2 * abs(A) * p2q2[1] + 8 * abs(B) * pq3[1] + A * A * q4[1])
    G = (4 * (p3q[0] + A * pq3[0] + B * q4[0]),
         4 * (p3q[1] + abs(A) * pq3[1] + abs(B) * q4[1]))
    return F, G


def _hybrid_height(A: int, B: int, p0: int, q0: int, tol: float) -> Tuple[float, float]:
    """Certified 4^(-n) h_n with n chosen so tail + evaluation error <= tol:
    (value, error bound)."""
    env = _envelope_cached(A, B)
    R1 = env.R1
    # internal target stricter than tol so m^2-linear combinations of
    # results stay within acceptance-style bands
    tail = tol / 32
    n_target = max(1, math.ceil(math.log(env.C / (3 * tail)) / math.log(4)))
    prefix_bits = _PREFIX_BITS
    while True:
        p, q = p0, q0
        k = 0
        while k < n_target and max(abs(p).bit_length(), q.bit_length()) <= prefix_bits:
            F, G = _dup_forms(A, B, p, q)
            if G == 0:
                raise EllipticError("duplication orbit hit a 2-torsion point")
            # exact: gcd(F, G) divides R1 (module docstring)
            g = math.gcd(R1, F % R1, G % R1)
            p, q = F // g, G // g
            if q < 0:
                p, q = -p, -q
            k += 1
        try:
            for dps in (60, 120, 240, 480):
                box = _interval_continue(A, B, p, q, k, n_target, env, dps)
                if box is None or (width := float(mp.mpf(box.delta))) > tol / 4:
                    continue
                return float(mp.mpf(box.mid)), env.C / (3 * 4**n_target) + width
            reason = "interval continuation would not certify the requested tolerance"
        except _SuspectedExactZero:
            if prefix_bits * 4 <= _PREFIX_BITS_MAX:
                prefix_bits *= 4
                continue
            reason = "orbit passes too close to x = 0 for the exact prefix budget"
        raise CanonicalHeightBudgetError(
            reason, A=A, B=B, p0_bits=abs(p0).bit_length(), q0_bits=q0.bit_length(),
            tol=tol, n_target=n_target, dps=dps, prefix_bits=prefix_bits)


def canonical_height(curve: EllipticCurveQ, point: ECPoint, tol: float = 1e-8) -> float:
    """Neron-Tate height in the x-coordinate normalization, error <= tol.

    Exactly 0 for torsion points. Model-independent: the curve is rescaled
    to integral coefficients first, which does not change the limit.
    """
    require_on_curve(curve, point)
    if tol <= 0:
        raise EllipticError("tol must be positive")
    if point.is_identity or is_torsion(curve, point):
        return 0.0
    return nontorsion_height(curve, point, tol)


def nontorsion_height(curve: EllipticCurveQ, point: ECPoint, tol: float) -> float:
    """canonical_height of a point the caller has already found not to be
    torsion: the certified duplication limit without a second torsion test."""
    return _hybrid_height(*_integral_x(curve, point), tol)[0]


def _integral_x(curve: EllipticCurveQ, point: ECPoint) -> Tuple[int, int, int, int]:
    """(A, B, p, q): the integral model and x = p/q of the point on it."""
    icurve, u = curve.integral_model()
    x = point.x * u * u
    return int(icurve.a), int(icurve.b), x.numerator, x.denominator


# ---------------------------------------------------------------------------
# torsion enumeration (integral models, Lutz-Nagell)
# ---------------------------------------------------------------------------


def torsion_points(curve: EllipticCurveQ) -> List[ECPoint]:
    """All torsion points, via Lutz-Nagell candidates decided exactly.

    Candidates on the integral model have integer coordinates with y = 0 or
    y^2 dividing 4A^3 + 27B^2 (the Nagell-Lutz bound, Silverman AEC
    VIII.7.2, that the doubling walk applies too); the walk decides each.
    Points map back by x = X / u^2, y = Y / u^3.
    """
    icurve, u = curve.integral_model()
    A, B = int(icurve.a), int(icurve.b)
    found, ys = {ECPoint.identity()}, [1]  # ys: the y > 0 with y^2 | 4A^3 + 27B^2
    for ell, e in _factor(abs(4 * A**3 + 27 * B**2)).items():
        ys = [y * ell**k for y in ys for k in range(e // 2 + 1)]
    for y in [0] + ys:
        for x in _integer_cubic_roots(A, B - y * y):
            if _doubling_orbit_torsion(A, B, x):
                found.update(ECPoint(Fraction(x, u**2), Fraction(s, u**3)) for s in (y, -y))
    return sorted(found, key=lambda t: (0,) if t.is_identity else (1, t.x, t.y))


def _integer_cubic_roots(A: int, c: int) -> List[int]:
    """Integer roots of f = x^3 + A x + c by integer bisection on its monotone
    pieces (f' < 0 only for |x| < sqrt(-A/3)); every root has
    |x| <= 1 + max(|A|, |c|)."""
    big, m = 1 + max(abs(A), abs(c)), math.isqrt(max(-A, 0) // 3)
    roots = set()
    for lo, hi, sign in ((-big, -m - 1, 1), (-m, m, -1), (m + 1, big, 1)):
        while lo < hi:  # the first x in [lo, hi] with sign * f(x) >= 0
            mid = (lo + hi) // 2
            if sign * (mid**3 + A * mid + c) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if lo**3 + A * lo + c == 0:
            roots.add(lo)
    return sorted(roots)
