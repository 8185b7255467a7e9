"""Command line front end: heights, N-functions, equidistribution datasets,
proposition checks, and the small-point explorer.

Conventions shared by every subcommand:

  * rationals are read and printed as "p/q" strings, never as floats;
  * every float is printed with 12 significant digits, so identical inputs
    produce byte-identical output and JSON reports round-trip exactly;
  * algebraic numbers are JSON objects {"minpoly": [c0..cd], "root_index": k}
    (constant term first; an "approx": {"re", "im"} object may replace
    root_index), curves are {"a": "p/q", "b": "p/q"}, curve points are
    {"x": "p/q", "y": "p/q"} or "O";
  * exit codes: 0 ok, 1 parse/validation error, 2 search space too large,
    3 point off curve, 4 inconclusive comparison or exhausted budget,
    5 property violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .algebraic import (
    AlgebraicError,
    AlgebraicNumber,
    RootRefinementError,
    TorusElement,
    radical,
    root_of_unity,
    torus_height,
    weil_height,
)
from .dynamics import (
    DEFAULT_CAP,
    DynamicsError,
    HeightedSystem,
    InconclusiveComparisonError,
    SearchBudgetError,
    StarParams,
    check_prop2,
    check_prop3,
    check_prop4,
    classify_small_sequence,
    derive_prop1_params,
    empirical_height_comparison,
    n_function,
    verify_star,
)
from .elliptic import (
    ECPoint,
    EllipticCurveQ,
    EllipticError,
    OffCurveError,
    _is_prime,
    canonical_height,
    naive_height,
    require_on_curve,
)
from .equidist import (
    EquidistError,
    orbit_measure,
    radial_deviation,
    star_discrepancy,
    weyl_sum,
)
from .semiabelian import (
    AmbientVariety,
    CurveRelation,
    ExploreConfig,
    SearchSpaceError,
    SemiabelianError,
    SemiabelianPoint,
    SubgroupGamma,
    explore_theorem,
)

__all__ = ["ExperimentConfig", "main"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEARCH_SPACE = 2
EXIT_OFF_CURVE = 3
EXIT_INCONCLUSIVE = 4
EXIT_VIOLATION = 5

FORMATS = ("json", "csv", "text")

# every report labels its evidence honestly: sampled claims are sampled,
# exact claims come from exponent arithmetic on the whole class
SCOPE_LABEL = "verified on sample / exact on class"


class CliError(Exception):
    """Carries the exit code its message should produce."""

    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ExperimentConfig:
    """Global run parameters shared by all subcommands."""

    fmt: str = "text"
    tol: float = 1e-10
    cap: int = DEFAULT_CAP
    out_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise CliError(f"format must be one of {FORMATS}")
        if not self.tol > 0:
            raise CliError("tolerance must be positive")
        if int(self.cap) != self.cap or self.cap < 1:
            raise CliError("cap must be an integer >= 1")
        object.__setattr__(self, "cap", int(self.cap))
        if int(self.seed) != self.seed or self.seed < 0:
            raise CliError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------


def fmt_float(v: float) -> str:
    return f"{float(v):.12g}"


def _round12(payload):
    """Round every float to 12 significant digits, recursively.

    bool is checked before int because bool subclasses int."""
    if isinstance(payload, bool):
        return payload
    if isinstance(payload, float):
        return float(fmt_float(payload))
    if isinstance(payload, dict):
        return {k: _round12(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_round12(v) for v in payload]
    return payload


def _default_text(payload, indent: str = "") -> List[str]:
    lines = []
    if isinstance(payload, dict):
        for k in payload:
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.extend(_default_text(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_scalar_text(v)}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_default_text(v, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar_text(v)}")
    else:
        lines.append(f"{indent}{_scalar_text(payload)}")
    return lines


def _scalar_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def emit(payload: dict, cfg: ExperimentConfig,
         text_lines: Optional[List[str]] = None) -> None:
    if cfg.fmt == "json":
        print(json.dumps(_round12(payload), indent=2, sort_keys=True))
    elif cfg.fmt == "text":
        print("\n".join(text_lines if text_lines is not None
                        else _default_text(_round12(payload))))
    else:
        raise CliError("csv output is only available for equidist and orbit")


# ---------------------------------------------------------------------------
# input literals
# ---------------------------------------------------------------------------


def _no_unknown(obj: dict, allowed: Sequence[str], what: str) -> None:
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise CliError(f"unknown field(s) {extra} in {what}; allowed: {sorted(allowed)}")


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")


def parse_rational(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise CliError(f"rationals must be written as strings 'p/q', got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise CliError(f"cannot read {value!r} as a rational p/q")


def parse_algebraic(obj) -> AlgebraicNumber:
    if isinstance(obj, (str, int)):
        return AlgebraicNumber.from_rational(parse_rational(obj))
    if not isinstance(obj, dict):
        raise CliError(f"cannot read {obj!r} as an algebraic number")
    _no_unknown(obj, ("minpoly", "root_index", "approx"), "algebraic number")
    if "minpoly" not in obj:
        raise CliError("algebraic number literal needs a 'minpoly' array")
    coeffs = obj["minpoly"]
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
        raise CliError("'minpoly' must be an array of integers, constant term first")
    index = obj.get("root_index")
    approx = None
    if "approx" in obj:
        if index is not None:
            raise CliError("give 'root_index' or 'approx', not both")
        ap = obj["approx"]
        _no_unknown(ap, ("re", "im"), "'approx'")
        approx = complex(float(ap.get("re", 0.0)), float(ap.get("im", 0.0)))
    try:
        return AlgebraicNumber.from_minpoly(
            coeffs, index=index, approx=approx, strict_canonical=True
        )
    except AlgebraicError as exc:
        raise CliError(str(exc))


def parse_torus_literal(obj) -> TorusElement:
    """One torus coordinate: 'p/q', or an object naming a radical, a root
    of unity, or a minpoly, each with an optional integer 'exponent'."""
    if isinstance(obj, (str, int)):
        return TorusElement.from_rational(parse_rational(obj))
    if not isinstance(obj, dict):
        raise CliError(f"cannot read {obj!r} as a torus element")
    exponent = obj.get("exponent", 1)
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise CliError("'exponent' must be an integer")
    body = {k: v for k, v in obj.items() if k != "exponent"}
    if "radical" in body:
        _no_unknown(body, ("radical",), "torus element")
        pair = body["radical"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliError("'radical' takes [r, m]")
        return TorusElement(radical(parse_rational(pair[0]), int(pair[1])), exponent)
    if "root_of_unity" in body:
        _no_unknown(body, ("root_of_unity",), "torus element")
        spec = body["root_of_unity"]
        if isinstance(spec, int):
            spec = [spec]
        if not isinstance(spec, list) or not 1 <= len(spec) <= 2:
            raise CliError("'root_of_unity' takes [n] or [n, k]")
        n = int(spec[0])
        k = int(spec[1]) if len(spec) == 2 else 1
        return TorusElement(root_of_unity(n, k), exponent)
    if "minpoly" in body:
        return TorusElement(parse_algebraic(body), exponent)
    raise CliError(
        "torus element needs 'radical', 'root_of_unity', 'minpoly', or a "
        "rational string"
    )


def parse_curve(obj) -> EllipticCurveQ:
    if not isinstance(obj, dict):
        raise CliError("curve file must be a JSON object {'a': 'p/q', 'b': 'p/q'}")
    _no_unknown(obj, ("a", "b"), "curve")
    if "a" not in obj or "b" not in obj:
        raise CliError("curve needs both 'a' and 'b'")
    return EllipticCurveQ(parse_rational(obj["a"]), parse_rational(obj["b"]))


def parse_ec_point(obj) -> ECPoint:
    if obj == "O":
        return ECPoint.identity()
    if not isinstance(obj, dict):
        raise CliError("point must be {'x': 'p/q', 'y': 'p/q'} or 'O'")
    _no_unknown(obj, ("x", "y"), "point")
    if "x" not in obj or "y" not in obj:
        raise CliError("point needs both 'x' and 'y'")
    return ECPoint.of(parse_rational(obj["x"]), parse_rational(obj["y"]))


def parse_product_point(obj) -> SemiabelianPoint:
    if not isinstance(obj, dict):
        raise CliError("product point must be {'ec': ..., 'torus': [...]}")
    _no_unknown(obj, ("ec", "torus"), "product point")
    ec = parse_ec_point(obj.get("ec", "O"))
    torus = tuple(parse_torus_literal(t) for t in obj.get("torus", []))
    return SemiabelianPoint(ec, torus)


def parse_star(obj) -> StarParams:
    if not isinstance(obj, dict):
        raise CliError("'star' must be an object {'r', 'M', 'c'}")
    _no_unknown(obj, ("r", "M", "c"), "star parameters")
    for key in ("r", "M", "c"):
        if key not in obj:
            raise CliError(f"star parameters need '{key}'")
    try:
        return StarParams(r=obj["r"], M=float(obj["M"]), c=float(obj["c"]))
    except DynamicsError as exc:
        raise CliError(str(exc))


def parse_system(obj, cfg: ExperimentConfig) -> HeightedSystem:
    """System descriptor {"domain", "map", "shift", "star"}; elliptic and
    product domains additionally carry "curve"."""
    if not isinstance(obj, dict):
        raise CliError("system descriptor must be a JSON object")
    _no_unknown(obj, ("domain", "map", "shift", "star", "curve"), "system")
    domain = obj.get("domain")
    if domain not in ("torus", "elliptic", "product"):
        raise CliError("system 'domain' must be torus, elliptic, or product")
    mp = obj.get("map")
    if not isinstance(mp, dict):
        raise CliError("system needs a 'map' object {'kind', 'm'}")
    _no_unknown(mp, ("kind", "m"), "map descriptor")
    kind = mp.get("kind")
    wants = {"torus": ("power",), "elliptic": ("mult",),
             "product": ("power", "mult")}[domain]
    if kind not in wants:
        raise CliError(f"map kind {kind!r} does not act on a {domain} domain")
    m = mp.get("m")
    if not isinstance(m, int) or isinstance(m, bool):
        raise CliError("map degree 'm' must be an integer")
    shift = float(obj.get("shift", 0.0))
    star = parse_star(obj["star"]) if "star" in obj else None
    curve = None
    if domain in ("elliptic", "product"):
        if "curve" not in obj:
            raise CliError(f"{domain} system needs a 'curve'")
        curve = parse_curve(obj["curve"])
    elif "curve" in obj:
        raise CliError("torus system takes no 'curve'")
    try:
        return HeightedSystem(domain, m, shift, curve, cfg.tol, star)
    except DynamicsError as exc:
        raise CliError(str(exc))


def parse_point_for(system: HeightedSystem, obj):
    if system.domain == "torus":
        return parse_torus_literal(obj)
    if system.domain == "elliptic":
        pt = parse_ec_point(obj)
        if not pt.is_identity:
            require_on_curve(system.curve, pt)
        return pt
    pt = parse_product_point(obj)
    if not pt.ec.is_identity:
        require_on_curve(system.curve, pt.ec)
    return pt


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def cmd_height(args, cfg: ExperimentConfig) -> Tuple[dict, List[str], int]:
    if args.curve or args.point:
        if not (args.curve and args.point):
            raise CliError("curve heights need both --curve and --point")
        curve = parse_curve(load_json(args.curve))
        point = parse_ec_point(load_json(args.point))
        if not point.is_identity:
            require_on_curve(curve, point)
        payload = {"kind": "elliptic", "point": str(point), "tol": cfg.tol}
        lines = []
        if args.naive or not args.canonical:
            payload["naive"] = naive_height(point)
            lines.append(f"naive height    {fmt_float(payload['naive'])}")
        if args.canonical or not args.naive:
            payload["canonical"] = canonical_height(curve, point, cfg.tol)
            lines.append(f"canonical height {fmt_float(payload['canonical'])}"
                         f"  (tol {fmt_float(cfg.tol)})")
        return payload, lines, EXIT_OK

    t = _height_input(args)
    if args.exponent != 1 or t.exponent != 1:
        value = torus_height(t, cfg.tol)
        kind = "torus"
    else:
        value = weil_height(t.base, cfg.tol)
        kind = "weil"
    payload = {"kind": kind, "input": str(t), "height": value, "tol": cfg.tol}
    return payload, [f"h({t}) = {fmt_float(value)}"], EXIT_OK


def _height_input(args) -> TorusElement:
    chosen = [x for x in (args.rational, args.minpoly, args.radical) if x]
    if len(chosen) != 1:
        raise CliError(
            "give exactly one of --rational, --minpoly, --radical, or "
            "--curve/--point"
        )
    if args.rational:
        return TorusElement(
            AlgebraicNumber.from_rational(parse_rational(args.rational)),
            args.exponent,
        )
    if args.minpoly:
        try:
            coeffs = [int(c) for c in args.minpoly.split(",")]
        except ValueError:
            raise CliError("--minpoly takes comma-separated integers c0,...,cd")
        literal = {"minpoly": coeffs}
        if args.index is not None:
            literal["root_index"] = args.index
        return TorusElement(parse_algebraic(literal), args.exponent)
    r, m = args.radical
    return TorusElement(radical(parse_rational(r), int(m)), args.exponent)


# ---------------------------------------------------------------------------
# nfunc
# ---------------------------------------------------------------------------


def cmd_nfunc(args, cfg: ExperimentConfig) -> Tuple[dict, List[str], int]:
    system = parse_system(load_json(args.system), cfg)
    if system.star is None:
        raise CliError("system descriptor has no 'star' block")

    if args.sequence:
        if not (args.radical and args.n_max):
            raise CliError("--sequence classifies the staircase R^(1/n); "
                           "give --radical R 1 and --n-max N")
        family = _radical_staircase(args, system)
        report = classify_small_sequence(system, family, system.star, cfg.cap)
        payload = report.as_dict()
        payload["delta"] = system.shift
        payload["scope"] = SCOPE_LABEL
        lines = [
            f"family of {len(family)} points",
            f"N diverges: {payload['n_diverges']}",
            f"heights to zero: {payload['heights_to_zero']}",
            f"small sequence: {payload['is_small_sequence']}",
        ]
        return payload, lines, EXIT_OK

    points = _nfunc_points(args, system, cfg)
    if not points:
        raise CliError("no points given; use --point, --radical, "
                       "--root-of-unity, --algebraic, or --random-rationals")
    results = []
    lines = []
    code = EXIT_OK
    for z in points:
        n = n_function(system, z, None, cfg.cap)
        results.append({"point": str(z), "n": str(n)})
        lines.append(f"N({z}) = {n}")
        if n.kind == "cap_exceeded":
            code = EXIT_INCONCLUSIVE
    payload = {"results": results, "delta": system.shift, "cap": cfg.cap}
    return payload, lines, code


def _radical_staircase(args, system) -> List[TorusElement]:
    r, _ = args.radical[0]
    base = parse_rational(r)
    return [
        TorusElement(radical(base, n), 1) if n > 1
        else TorusElement.from_rational(base)
        for n in range(1, args.n_max + 1)
    ]


def _nfunc_points(args, system, cfg) -> list:
    points = []
    for s in args.point or []:
        if system.domain == "torus":
            points.append(TorusElement.from_rational(parse_rational(s)))
        else:
            points.append(parse_point_for(system, load_json(s)))
    for r, m in args.radical or []:
        if system.domain != "torus":
            raise CliError("--radical points live on a torus system")
        points.append(TorusElement(radical(parse_rational(r), int(m)), 1))
    for spec in args.root_of_unity or []:
        if system.domain != "torus":
            raise CliError("--root-of-unity points live on a torus system")
        n, k = (int(spec[0]), int(spec[1])) if len(spec) == 2 else (int(spec[0]), 1)
        points.append(TorusElement(root_of_unity(n, k), 1))
    for path in args.algebraic or []:
        if system.domain != "torus":
            raise CliError("--algebraic points live on a torus system")
        points.append(parse_torus_literal(load_json(path)))
    if args.random_rationals:
        if system.domain != "torus":
            raise CliError("--random-rationals works on torus systems")
        rng = random.Random(cfg.seed)
        while len(points) < args.random_rationals:
            p = rng.randint(2, 999)
            q = rng.randint(1, 999)
            if math.gcd(p, q) == 1 and p != q:
                points.append(TorusElement.from_rational(Fraction(p, q)))
    return points


# ---------------------------------------------------------------------------
# equidist
# ---------------------------------------------------------------------------

ORBIT_HEADER = ["index", "angle", "radius", "log_radius"]
SUMMARY_HEADER = ["degree", "height", "discrepancy",
                  "weyl1", "weyl2", "weyl3", "weyl4", "weyl5", "radial_dev"]


def _family(args) -> List[AlgebraicNumber]:
    chosen = [x for x in (args.radicals, args.primes_max, args.poly) if x]
    if len(chosen) != 1:
        raise CliError("give exactly one of --radicals, --primes-max, --poly")
    if args.radicals:
        if args.n_max is None:
            raise CliError("--radicals needs --n-max")
        base = parse_rational(args.radicals)
        return [radical(base, n) for n in range(1, args.n_max + 1)]
    if args.primes_max:
        return [root_of_unity(p) for p in range(2, args.primes_max + 1) if _is_prime(p)]
    body = load_json(args.poly)
    if isinstance(body, list):
        return [parse_algebraic(x) for x in body]
    return [parse_algebraic(body)]


def _write_csv(path: Path, header: List[str], rows: List[List[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_equidist(args, cfg: ExperimentConfig) -> Tuple[dict, List[str], int]:
    if cfg.out_dir is None:
        raise CliError("equidist writes CSV files; give --out-dir")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    family = _family(args)
    summary_rows = []
    orbit_files = []
    for i, alpha in enumerate(family, start=1):
        mu = orbit_measure(alpha)
        rows = [
            [str(idx), fmt_float(ang), fmt_float(rad), fmt_float(lr)]
            for idx, ang, rad, lr in mu.rows()
        ]
        name = f"orbit_{i:04d}.csv"
        _write_csv(out / name, ORBIT_HEADER, rows)
        orbit_files.append(name)
        entry = [
            str(alpha.degree),
            fmt_float(weil_height(alpha, min(cfg.tol, 1e-9))),
            fmt_float(star_discrepancy(mu)),
        ]
        entry += [fmt_float(weyl_sum(mu, k)) for k in range(1, 6)]
        entry.append(fmt_float(radial_deviation(mu)))
        summary_rows.append(entry)
    _write_csv(out / "summary.csv", SUMMARY_HEADER, summary_rows)
    payload = {
        "orbits": len(family),
        "summary": str(out / "summary.csv"),
        "orbit_files": orbit_files,
    }
    lines = [f"wrote {len(family)} orbit file(s) and summary.csv to {out}"]
    return payload, lines, EXIT_OK


# ---------------------------------------------------------------------------
# prop-check
# ---------------------------------------------------------------------------


def _scenario_samples(scenario: dict, system: HeightedSystem) -> list:
    raw = scenario.get("samples", [])
    if not isinstance(raw, list):
        raise CliError("'samples' must be an array of point literals")
    return [parse_point_for(system, s) for s in raw]


def cmd_prop_check(args, cfg: ExperimentConfig) -> Tuple[dict, List[str], int]:
    scenario = load_json(args.scenario)
    if not isinstance(scenario, dict):
        raise CliError("scenario must be a JSON object")
    part = scenario.get("part")
    if part not in (1, 2, 3, 4):
        raise CliError("scenario needs 'part': 1, 2, 3, or 4")
    handler = {1: _prop1, 2: _prop2, 3: _prop3, 4: _prop4}[part]
    payload = handler(scenario, cfg)
    payload["part"] = part
    payload["name"] = scenario.get("name", f"part{part}")
    payload["scope"] = SCOPE_LABEL

    inconclusive = any(
        "cap_exceeded" in str(row.values()) for row in payload.get("rows", [])
    )
    violations = payload.get("violations", [])
    code = EXIT_OK if not violations else EXIT_VIOLATION
    if inconclusive:
        code = EXIT_INCONCLUSIVE
    lines = [
        f"part {part} ({payload['name']}): "
        + ("PASS" if code == EXIT_OK else "FAIL"),
        f"violations: {len(violations)}",
        f"delta: {fmt_float(payload.get('delta', 0.0))}",
        f"scope: {SCOPE_LABEL}",
    ]
    return payload, lines, code


def _common(scenario: dict, cfg, *extra_keys) -> tuple:
    allowed = ("part", "name", "samples") + extra_keys
    _no_unknown(scenario, allowed, "scenario")
    if "star" in allowed and "star" not in scenario:
        raise CliError("scenario needs 'star'")
    return allowed


def _prop1(scenario: dict, cfg: ExperimentConfig) -> dict:
    _common(scenario, cfg, "system", "system_prime", "star")
    system = parse_system(scenario.get("system"), cfg)
    system_prime = parse_system(scenario.get("system_prime"), cfg)
    star = parse_star(scenario["star"])
    samples = _scenario_samples(scenario, system)
    if not samples:
        raise CliError("part 1 needs calibrating samples")
    comparison = empirical_height_comparison(system, system_prime, samples)
    # the observed max ratio is attained, not strictly exceeded; the
    # constants of the comparison must dominate it strictly and be >= 1
    e = max(1.0, comparison.e) * (1 + 1e-9)
    e_prime = max(1.0, comparison.e_prime) * (1 + 1e-9)
    derived = derive_prop1_params(star, e, e_prime)
    report = verify_star(system_prime, derived, samples)
    return {
        "e": e,
        "e_prime": e_prime,
        "star": {"r": star.r, "M": star.M, "c": star.c},
        "derived_star": {"r": derived.r, "M": derived.M, "c": derived.c},
        "analytic_ok": report.analytic_ok,
        "checked": report.checked,
        "vacuous": report.vacuous,
        "violations": list(report.violations)
        + ([] if report.analytic_ok else [{"reason": "analytic (*) fails"}]),
        "delta": system_prime.shift,
        "holds": report.holds,
    }


def _prop2(scenario: dict, cfg: ExperimentConfig) -> dict:
    _common(scenario, cfg, "system", "star", "m_prime", "e_prime")
    system = parse_system(scenario.get("system"), cfg)
    star = parse_star(scenario["star"])
    if "m_prime" not in scenario:
        raise CliError("part 2 needs 'm_prime'")
    report = check_prop2(
        system,
        star,
        float(scenario["m_prime"]),
        float(scenario.get("e_prime", 1.0)),
        _scenario_samples(scenario, system),
        cfg.cap,
    )
    body = report.as_dict()
    body["m_prime"] = float(scenario["m_prime"])
    return body


def _prop3(scenario: dict, cfg: ExperimentConfig) -> dict:
    _common(scenario, cfg, "system_f", "system_g", "star", "d")
    system_f = parse_system(scenario.get("system_f"), cfg)
    system_g = parse_system(scenario.get("system_g"), cfg)
    star = parse_star(scenario["star"])
    if "d" not in scenario:
        raise CliError("part 3 needs 'd'")
    report = check_prop3(
        system_f, system_g, star, float(scenario["d"]),
        _scenario_samples(scenario, system_f), cfg.cap,
    )
    body = report.as_dict()
    if not report.d_valid:
        body["violations"] = list(body["violations"]) + [
            {"reason": "d does not strictly bound one-step height growth"}
        ]
    return body


def _prop4(scenario: dict, cfg: ExperimentConfig) -> dict:
    _common(scenario, cfg, "psi", "k", "system", "system_prime", "star", "m_prime")
    system = parse_system(scenario.get("system"), cfg)
    system_prime = parse_system(scenario.get("system_prime"), cfg)
    star = parse_star(scenario["star"])
    if "m_prime" not in scenario:
        raise CliError("part 4 needs 'm_prime'")
    report = check_prop4(
        scenario.get("psi", "include"),
        system,
        system_prime,
        star,
        float(scenario["m_prime"]),
        _scenario_samples(scenario, system),
        int(scenario.get("k", 1)),
        cfg.cap,
    )
    body = report.as_dict()
    if not report.m_prime_ok:
        body["violations"] = list(body["violations"]) + [
            {"reason": "M' must exceed alpha * M"}
        ]
    return body


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def _parse_relation(raw, torus_rank: int) -> CurveRelation:
    if not isinstance(raw, list) or not raw:
        raise CliError("'relation' must be a non-empty array of equations")
    equations = []
    for eq in raw:
        if not isinstance(eq, list) or not eq:
            raise CliError("each equation is a non-empty array of terms")
        terms = {}
        for term in eq:
            _no_unknown(term, ("coeff", "exponents"), "relation term")
            if "coeff" not in term or "exponents" not in term:
                raise CliError("relation terms need 'coeff' and 'exponents'")
            exps = tuple(int(e) for e in term["exponents"])
            terms[exps] = terms.get(exps, Fraction(0)) + parse_rational(term["coeff"])
        equations.append(terms)
    try:
        return CurveRelation.of(equations, torus_rank)
    except SemiabelianError as exc:
        raise CliError(str(exc))


def cmd_explore(args, cfg: ExperimentConfig) -> Tuple[dict, List[str], int]:
    exp = load_json(args.experiment)
    if not isinstance(exp, dict):
        raise CliError("experiment must be a JSON object")
    _no_unknown(
        exp,
        ("name", "curve", "torus_rank", "generators", "relation", "eps",
         "gen_bound", "rou_order", "radicals", "max_search"),
        "experiment",
    )
    for key in ("curve", "torus_rank", "relation", "eps"):
        if key not in exp:
            raise CliError(f"experiment needs '{key}'")
    curve = parse_curve(exp["curve"])
    rank = int(exp["torus_rank"])
    ambient = AmbientVariety(curve, rank)
    generators = []
    for g in exp.get("generators", []):
        pt = parse_product_point(g)
        if not pt.ec.is_identity:
            require_on_curve(curve, pt.ec)
        generators.append(pt)
    try:
        gamma = SubgroupGamma.of(generators, rank)
        config = ExploreConfig(
            gen_bound=int(exp.get("gen_bound", 2)),
            rou_order=int(exp.get("rou_order", 8)),
            radicals=tuple(
                (parse_rational(r), int(m)) for r, m in exp.get("radicals", [])
            ),
            tol=cfg.tol,
            max_search=int(exp.get("max_search", 200_000)),
        )
        report = explore_theorem(ambient, gamma, _parse_relation(
            exp["relation"], rank), float(exp["eps"]), config)
    except SearchSpaceError:
        raise
    except SemiabelianError as exc:
        raise CliError(str(exc))
    report["name"] = exp.get("name", "experiment")
    lines = [
        report["disclaimer"],
        "",
        f"experiment {report['name']}: {report['hit_count']} hit(s) "
        f"in a search of {report['search_size']} candidates",
        f"candidates in B_eps: {report['candidates_in_ball']} "
        f"(boundary skipped: {report['boundary_skipped']})",
    ]
    for i, hit in enumerate(report["hits"]):
        lines.append(
            f"  hit {i}: x = {hit['point']}  gamma = {hit['gamma_coefficients']}"
            f"  z = {hit['small_point']}  [{hit['membership']}]"
        )
    lines.append(f"coset candidates: {report['cosets']}")
    return report, lines, EXIT_OK


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def cmd_orbit(args, cfg: ExperimentConfig) -> Tuple[dict, List[str], int]:
    fake = argparse.Namespace(
        rational=None, minpoly=args.minpoly, radical=args.radical,
        index=args.index, exponent=1, curve=None, point=None,
    )
    if args.poly:
        alpha = parse_algebraic(load_json(args.poly))
    elif args.root_of_unity:
        spec = args.root_of_unity
        n, k = (int(spec[0]), int(spec[1])) if len(spec) == 2 else (int(spec[0]), 1)
        alpha = root_of_unity(n, k)
    else:
        alpha = _height_input(fake).base
    mu = orbit_measure(alpha)
    rows = [
        [str(i), fmt_float(a), fmt_float(r), fmt_float(lr)]
        for i, a, r, lr in mu.rows()
    ]
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "orbit.csv", ORBIT_HEADER, rows)
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ORBIT_HEADER)
        writer.writerows(rows)
        print(buf.getvalue(), end="")
        return {}, [], EXIT_OK
    payload = {
        "degree": alpha.degree,
        "rows": [
            {"index": i, "angle": a, "radius": r, "log_radius": lr}
            for i, a, r, lr in mu.rows()
        ],
    }
    lines = [",".join(ORBIT_HEADER)] + [",".join(r) for r in rows]
    return payload, lines, EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


GLOBAL_DEFAULTS = {
    "tol": 1e-10,
    "cap": DEFAULT_CAP,
    "format": "text",
    "out_dir": None,
    "seed": 0,
}


def _global_flags() -> argparse.ArgumentParser:
    """The shared flags, accepted both before and after the subcommand.

    Defaults are SUPPRESS so a subparser that does not see the flag cannot
    overwrite a value parsed before the subcommand; main() fills in
    GLOBAL_DEFAULTS afterwards."""
    g = _Parser(add_help=False)
    g.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="height tolerance (default 1e-10)")
    g.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                   help=f"iteration cap (default {DEFAULT_CAP})")
    g.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
    g.add_argument("--out-dir", "-o", default=argparse.SUPPRESS,
                   help="directory for CSV emission")
    g.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed for generated sample points")
    return g


def build_parser() -> argparse.ArgumentParser:
    shared = [_global_flags()]
    parser = _Parser(
        prog="smallpoints",
        description="heights, N-functions, and small-point searches on "
                    "products of an elliptic curve with a torus",
        parents=shared,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("height", help="Weil / torus / curve heights",
                       parents=shared)
    p.add_argument("--rational", help="rational number p/q")
    p.add_argument("--minpoly", help="integer coefficients c0,...,cd")
    p.add_argument("--index", type=int, default=None, help="root index")
    p.add_argument("--radical", nargs=2, metavar=("R", "M"),
                   help="the real M-th root of R")
    p.add_argument("--exponent", type=int, default=1,
                   help="torus exponent applied to the input")
    p.add_argument("--curve", help="curve JSON file {'a': 'p/q', 'b': 'p/q'}")
    p.add_argument("--point", help="point JSON file {'x', 'y'} or 'O'")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--naive", action="store_true")

    p = sub.add_parser("nfunc", help="N-function values and small sequences", parents=shared)
    p.add_argument("--system", required=True, help="system descriptor JSON file")
    p.add_argument("--point", action="append",
                   help="rational p/q (torus) or point file (curve/product)")
    p.add_argument("--radical", nargs=2, action="append", metavar=("R", "M"))
    p.add_argument("--root-of-unity", nargs="+", action="append",
                   metavar="N [K]")
    p.add_argument("--algebraic", action="append",
                   help="torus element literal JSON file")
    p.add_argument("--random-rationals", type=int, default=0,
                   help="append COUNT seeded random rational points")
    p.add_argument("--sequence", action="store_true",
                   help="classify the --radical staircase R^(1/n), n <= --n-max")
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("equidist", help="orbit and summary CSV emission", parents=shared)
    p.add_argument("--radicals", help="base R for the family R^(1/n)")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--primes-max", type=int, default=None,
                   help="primitive p-th roots of unity for primes <= P")
    p.add_argument("--poly", help="JSON file with algebraic literal(s)")

    p = sub.add_parser("prop-check", help="transfer-result scenario checks", parents=shared)
    p.add_argument("--scenario", required=True, help="scenario JSON file")

    p = sub.add_parser("explore", help="search X intersect (Gamma + B_eps)", parents=shared)
    p.add_argument("--experiment", required=True, help="experiment JSON file")

    p = sub.add_parser("orbit", help="dump the conjugate set of one number", parents=shared)
    p.add_argument("--minpoly", help="integer coefficients c0,...,cd")
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--radical", nargs=2, metavar=("R", "M"))
    p.add_argument("--root-of-unity", nargs="+", metavar="N [K]")
    p.add_argument("--poly", help="JSON file with an algebraic literal")

    return parser


_COMMANDS = {
    "height": cmd_height,
    "nfunc": cmd_nfunc,
    "equidist": cmd_equidist,
    "prop-check": cmd_prop_check,
    "explore": cmd_explore,
    "orbit": cmd_orbit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        merged = {**GLOBAL_DEFAULTS, **vars(args)}
        args = argparse.Namespace(**merged)
        cfg = ExperimentConfig(
            fmt=args.format, tol=args.tol, cap=args.cap,
            out_dir=args.out_dir, seed=args.seed,
        )
        payload, lines, code = _COMMANDS[args.command](args, cfg)
        if payload or lines:
            emit(payload, cfg, lines)
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SearchSpaceError as exc:
        print(f"error: search space of {exc.estimate} candidates exceeds "
              f"the budget of {exc.limit}", file=sys.stderr)
        return EXIT_SEARCH_SPACE
    except OffCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OFF_CURVE
    except (InconclusiveComparisonError, SearchBudgetError,
            RootRefinementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (AlgebraicError, DynamicsError, EllipticError, EquidistError,
            SemiabelianError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
