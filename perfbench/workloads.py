"""The benchmark's three workloads: seeded inputs, the calls, the oracles.

Inputs are plain JSON-able dicts generated block by block from
(workload, seed, block index), so the same seed gives byte-identical inputs
however many blocks a run consumes. Each block is stratified over the input
properties that set an item's cost, and a run executes whole blocks, so the
item mix of a run is nearly the same from seed to seed.

Each workload has
  make_block(seed, index)   -> list of input dicts
  prepare()                 -> oracle state, built once before timing
  run(inp, tracer, oracle)  -> output dict, every library call in a span
  check(inp, out, oracle) -> list of mismatch descriptions (empty if ok)
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from mpmath import mp, mpf

import smallpoints as sp

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
PRIMES_TO_47 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PRIMES_TO_61 = PRIMES_TO_47 + (53, 59, 61)

# absolute slack for comparing float statistics against closed forms
FLOAT_TOL = 1e-9


def _rng(workload: str, seed, index: int) -> random.Random:
    # string seeds hash with SHA-512: stable across processes and platforms
    return random.Random(f"{workload}:{seed}:{index}")


def _smallest_escape(h: float, growth: int, M: float) -> int:
    """Smallest N >= 1 with growth^N * h > M, decided at 50 digits."""
    with mp.workdps(50):
        hh, m = mpf(h), mpf(M)
        n = 1
        while growth**n * hh <= m:
            n += 1
        return n


# ---------------------------------------------------------------------------
# torus-orbits
# ---------------------------------------------------------------------------

TORUS_SYSTEM = sp.HeightedSystem("torus", 2)
TORUS_STAR = sp.StarParams(r=1, M=0.5, c=1.9)
# degrees 2..200 split into eight strata; each block draws one n from each
DEGREE_STRATA = tuple((2 + 25 * i, min(26 + 25 * i, 200)) for i in range(8))
ROU_PER_BLOCK = 2  # 2 of every 10 items are roots of unity


class TorusOrbits:
    name = "torus-orbits"
    why = (
        "radical(p/q, n) for n in [2, 200] and prime-order roots of unity: "
        "root certification and equidist do the work, elliptic is idle, "
        "inputs are nearly unique"
    )
    tail_pct = 95

    @staticmethod
    def make_block(seed: int, index: int):
        rng = _rng(TorusOrbits.name, seed, index)
        block = []
        for lo, hi in DEGREE_STRATA:
            p, q = rng.sample(SMALL_PRIMES, 2)
            block.append({"kind": "radical", "p": p, "q": q, "n": rng.randint(lo, hi)})
        for _ in range(ROU_PER_BLOCK):
            order = rng.choice(PRIMES_TO_61)
            block.append({"kind": "root_of_unity", "order": order,
                          "k": rng.randint(1, max(1, order - 1))})
        rng.shuffle(block)
        return block

    @staticmethod
    def prepare():
        return None

    @staticmethod
    def run(inp, tracer, oracle):
        if inp["kind"] == "radical":
            with tracer.span("algebraic.radical"):
                a = sp.radical(Fraction(inp["p"], inp["q"]), inp["n"])
        else:
            with tracer.span("algebraic.root_of_unity"):
                a = sp.root_of_unity(inp["order"], inp["k"])
        tracer.count("algebraic.degree_sum", a.degree)
        with tracer.span("algebraic.weil_height"):
            h = sp.weil_height(a)
        with tracer.span("dynamics.n_function"):
            nv = sp.n_function(TORUS_SYSTEM, sp.TorusElement(a), TORUS_STAR)
        with tracer.span("equidist.orbit_measure"):
            mu = sp.orbit_measure(a)
        with tracer.span("equidist.stats"):
            disc = sp.star_discrepancy(mu)
            weyl = [sp.weyl_sum(mu, k) for k in range(1, 6)]
            radial = sp.radial_deviation(mu)
        return {"degree": a.degree, "height": h, "n": str(nv),
                "discrepancy": disc, "weyl": weyl, "radial": radial}

    @staticmethod
    def check(inp, out, oracle):
        bad = []

        def near(label, got, want):
            if not abs(got - want) <= FLOAT_TOL:
                bad.append(f"{label}: got {got!r}, want {want!r}")

        if inp["kind"] == "radical":
            # p, q distinct primes: Eisenstein at p makes q x^n - p the
            # minimal polynomial; its roots are (p/q)^(1/n) times the n-th
            # roots of unity, so every statistic has a closed form
            p, q, n = inp["p"], inp["q"], inp["n"]
            h = math.log(max(p, q)) / n
            if out["degree"] != n:
                bad.append(f"degree: got {out['degree']}, want {n}")
            near("height", out["height"], h)
            near("discrepancy", out["discrepancy"], 1.0 / n)
            near("radial", out["radial"], abs(math.log(p / q)) / n)
            for k, w in enumerate(out["weyl"], start=1):
                near(f"weyl{k}", w, 1.0 if k % n == 0 else 0.0)
            want_n = str(_smallest_escape(h, TORUS_SYSTEM.m, TORUS_STAR.M))
            if out["n"] != want_n:
                bad.append(f"N: got {out['n']}, want {want_n}")
        else:
            # conjugates are the order-1 primitive roots: height 0, orbit
            # finite, sum of zeta^(jk) is -1 unless order divides k
            order = inp["order"]
            if out["degree"] != order - 1:
                bad.append(f"degree: got {out['degree']}, want {order - 1}")
            if out["height"] != 0.0:
                bad.append(f"height: got {out['height']!r}, want 0")
            if out["n"] != "preperiodic":
                bad.append(f"N: got {out['n']}, want preperiodic")
            if not out["discrepancy"] <= 4.0 / order + FLOAT_TOL:
                bad.append(f"discrepancy {out['discrepancy']!r} > 4/{order}")
            near("radial", out["radial"], 0.0)
            for k, w in enumerate(out["weyl"], start=1):
                near(f"weyl{k}", w, 1.0 if k % order == 0 else 1.0 / (order - 1))
        return bad


# ---------------------------------------------------------------------------
# curve-heights
# ---------------------------------------------------------------------------

# verified non-torsion (curve (a, b), generator) pairs on y^2 = x^3 + a x + b
CURVE_PAIRS = (
    ((0, -2), (3, 5)),
    ((0, 17), (-2, 3)),
    ((-1, 1), (1, 1)),
    ((0, 3), (1, 2)),
    ((-7, 10), (1, 2)),
)
K_MAX = 16
CURVE_TOL = 1e-9
ORACLE_TOL = 1e-12
CURVE_STAR = sp.StarParams(r=1, M=8.0, c=3.9)


# Prouhet-Thue-Morse split of 1..16: k - 1 with an even number of one bits
# goes to the first half. The halves have equal sums of k, k^2 and k^3, so
# they cost about the same although an item's cost grows steeply with k.
K_HALVES = tuple(
    tuple(k for k in range(1, K_MAX + 1) if bin(k - 1).count("1") % 2 == parity)
    for parity in (0, 1)
)


class CurveHeights:
    name = "curve-heights"
    why = (
        "kP for k in [1, 16] on five fixed curves: exact big-rational group "
        "law and the duplication prefix dominate, algebraic is idle, cost "
        "grows with k and sets the tail"
    )
    tail_pct = 85

    @staticmethod
    def make_block(seed: int, index: int):
        """Every pair with every k of one half of [1, 16], halves
        alternating from block to block; the seed orders the 40 items."""
        rng = _rng(CurveHeights.name, seed, index)
        block = [{"pair": c, "k": k} for k in K_HALVES[index % 2]
                 for c in range(len(CURVE_PAIRS))]
        rng.shuffle(block)
        return block

    @staticmethod
    def prepare():
        """Per pair: (curve, generator, elliptic system, hhat(P) at 1e-12)."""
        out = []
        for (a, b), (x, y) in CURVE_PAIRS:
            curve = sp.EllipticCurveQ(Fraction(a), Fraction(b))
            point = sp.ECPoint.of(x, y)
            system = sp.HeightedSystem("elliptic", 2, curve=curve)
            out.append((curve, point, system,
                        sp.canonical_height(curve, point, ORACLE_TOL)))
        return out

    @staticmethod
    def run(inp, tracer, oracle):
        curve, point, system, _ = oracle[inp["pair"]]
        with tracer.span("elliptic.ec_mul"):
            q = sp.ec_mul(curve, inp["k"], point)
        if not q.is_identity:
            tracer.count("elliptic.x_bits_sum",
                         q.x.numerator.bit_length() + q.x.denominator.bit_length())
        with tracer.span("elliptic.is_torsion"):
            torsion = sp.is_torsion(curve, q)
        with tracer.span("elliptic.canonical_height"):
            h = sp.canonical_height(curve, q, CURVE_TOL)
        with tracer.span("dynamics.n_function"):
            nv = sp.n_function(system, q, CURVE_STAR)
        return {"point": q, "torsion": torsion, "height": h, "n": str(nv)}

    @staticmethod
    def check(inp, out, oracle):
        curve, _, system, base = oracle[inp["pair"]]
        k = inp["k"]
        bad = []
        q = out["point"]
        if q.is_identity or not curve.contains(q.x, q.y):
            bad.append(f"{k}P is not an affine point of the curve")
        if out["torsion"]:
            bad.append(f"{k}P reported torsion")
        # hhat(kP) = k^2 hhat(P): tolerance is the two requested errors
        want = k * k * base
        if not abs(out["height"] - want) <= CURVE_TOL + k * k * ORACLE_TOL + 1e-15 * want:
            bad.append(f"hhat({k}P): got {out['height']!r}, want {want!r}")
        want_n = str(_smallest_escape(want, system.growth, CURVE_STAR.M))
        if out["n"] != want_n:
            bad.append(f"N: got {out['n']}, want {want_n}")
        return bad


# ---------------------------------------------------------------------------
# explore-grid
# ---------------------------------------------------------------------------

EXPLORE_CURVE = sp.EllipticCurveQ(Fraction(0), Fraction(-2))
EXPLORE_POINT = sp.ECPoint.of(3, 5)
EXPLORE_AMBIENT = sp.AmbientVariety(EXPLORE_CURVE, 1)
# eps puts R^(1/m) in the ball only for small R and m (2^(1/3), 2^(1/4),
# 3^(1/4)); roots of unity have height 0 and are always in
EXPLORE_EPS = 0.3
RADICAL_MAX_M = 4
RADICAL_BASES = (2, 3, 5, 7)
GEN_BOUNDS = (1, 2)
ROU_ORDERS = tuple(range(6, 13))


def _catalog_size(rou_order: int) -> int:
    phi = sum(1 for n in range(1, rou_order + 1)
              for j in range(1, n + 1) if math.gcd(j, n) == 1)
    return phi + RADICAL_MAX_M


class ExploreGrid:
    name = "explore-grid"
    why = (
        "explore_theorem on y^2=x^3-2 x G_m with a planted relation: many "
        "small algebraic calls past float64, a root working set beyond the "
        "512-entry cache, elliptic on small points"
    )
    tail_pct = 60

    @staticmethod
    def make_block(seed: int, index: int):
        """One item per (gen_bound, rou_order) cell.

        Item costs span two orders of magnitude with the generator sizes
        and R, and a run holds only a few dozen items, so r, s and R follow
        a schedule fixed by the block index alone and every run does the
        same work: r runs through a shuffle of the primes up to 47, s
        through a rotation of it (so r != s), R through {2, 3, 5, 7} minus
        {r, s}. The seed plants the relation: (a, b) in the gamma box."""
        schedule = _rng(ExploreGrid.name, "schedule", index)
        rs = list(PRIMES_TO_47)
        schedule.shuffle(rs)
        shift = schedule.randrange(1, len(rs))
        ss = rs[shift:] + rs[:shift]
        rng = _rng(ExploreGrid.name, seed, index)
        block = []
        cells = [(gb, ro) for gb in GEN_BOUNDS for ro in ROU_ORDERS]
        for (gb, ro), r, s in zip(cells, rs, ss):
            base = schedule.choice([p for p in RADICAL_BASES if p not in (r, s)])
            block.append({"r": r, "s": s, "gen_bound": gb, "rou_order": ro,
                          "radical": base,
                          "a": rng.randint(-gb, gb), "b": rng.randint(-gb, gb)})
        return block

    @staticmethod
    def prepare():
        return None

    @staticmethod
    def run(inp, tracer, oracle):
        gamma = sp.SubgroupGamma.of([
            sp.SemiabelianPoint(EXPLORE_POINT, (sp.TorusElement.from_rational(inp["r"]),)),
            sp.SemiabelianPoint(sp.ECPoint.identity(),
                                (sp.TorusElement.from_rational(inp["s"]),)),
        ])
        # t1 = r^a s^b: in Gamma + B_eps exactly at gamma coefficients (a, b)
        target = Fraction(inp["r"]) ** inp["a"] * Fraction(inp["s"]) ** inp["b"]
        relation = sp.CurveRelation.of([{(0, 0, 1): Fraction(1), (0, 0, 0): -target}], 1)
        config = sp.ExploreConfig(gen_bound=inp["gen_bound"], rou_order=inp["rou_order"],
                                  radicals=((Fraction(inp["radical"]), RADICAL_MAX_M),))
        with tracer.span("semiabelian.explore_theorem"):
            report = sp.explore_theorem(EXPLORE_AMBIENT, gamma, relation, EXPLORE_EPS, config)
        box = (2 * inp["gen_bound"] + 1) ** 2
        tracer.count("semiabelian.search_size", report["search_size"])
        tracer.count("semiabelian.catalog_points", report["search_size"] // box)
        tracer.count("semiabelian.in_ball", report["candidates_in_ball"])
        tracer.count("semiabelian.membership_tests", report["candidates_in_ball"] * box)
        tracer.count("semiabelian.hits", report["hit_count"])
        tracer.count("semiabelian.boundary_skipped", report["boundary_skipped"])
        return report

    @staticmethod
    def check(inp, out, oracle):
        bad = []
        want_size = _catalog_size(inp["rou_order"]) * (2 * inp["gen_bound"] + 1) ** 2
        if out["search_size"] != want_size:
            bad.append(f"search_size: got {out['search_size']}, want {want_size}")
        if out["hit_count"] != 1:
            bad.append(f"hit_count: got {out['hit_count']}, want 1")
            return bad
        hit = out["hits"][0]
        want = {"gamma_coefficients": [inp["a"], inp["b"]], "small_point": "(O; (1)^1)",
                "membership": "ExactYes", "certificate": "In"}
        for key, value in want.items():
            if hit[key] != value:
                bad.append(f"hit {key}: got {hit[key]!r}, want {value!r}")
        return bad


WORKLOADS = {w.name: w for w in (TorusOrbits, CurveHeights, ExploreGrid)}
