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
  * a torus input given by flag (--rational, --minpoly, --radical,
    --root-of-unity, a torus --point) is turned into that same JSON literal
    and read by the parser that reads files;
  * exit codes: 0 ok, 1 parse/validation error, 2 search space too large,
    3 point off curve, 4 inconclusive comparison or exhausted budget,
    5 property violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .algebraic import (
    AlgebraicError,
    AlgebraicNumber,
    IntPolynomial,
    RootRefinementError,
    TorusElement,
    radical,
    root_of_unity,
    torus_height,
    torus_power,
    weil_height,
)
from .dynamics import (
    DEFAULT_CAP,
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
    OffCurveError,
    _is_prime,
    canonical_height,
    naive_height,
    require_on_curve,
)
from .equidist import (
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
CSV_COMMANDS = ("equidist", "orbit")

# every report labels its evidence honestly: sampled claims are sampled,
# exact claims come from exponent arithmetic on the whole class
SCOPE_LABEL = "verified on sample / exact on class"


class CliError(ValueError):
    """A malformed command line or input file (exit 1)."""


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


GLOBAL_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

Table = Tuple[List[str], List[List[str]]]


class Output(NamedTuple):
    """What a subcommand hands to emit(): the JSON payload, the text lines,
    the exit code and, for the csv commands, the (header, rows) table."""

    payload: dict
    lines: List[str]
    code: int = EXIT_OK
    table: Optional[Table] = None


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


def _write_csv(fh, table: Table) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(table[0])
    writer.writerows(table[1])


def _save_csv(path: Path, table: Table) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, table)


def emit(out: Output, cfg: ExperimentConfig) -> None:
    if cfg.fmt == "json":
        print(json.dumps(_round12(out.payload), indent=2, sort_keys=True))
    elif cfg.fmt == "text":
        print("\n".join(out.lines))
    else:
        _write_csv(sys.stdout, out.table)


# ---------------------------------------------------------------------------
# input literals
# ---------------------------------------------------------------------------


def _no_unknown(obj, allowed: Sequence[str], what: str,
                required: Sequence[str] = ()) -> dict:
    """obj itself, once it is a JSON object with every required key and no
    key outside allowed."""
    if not isinstance(obj, dict):
        raise CliError(f"{what} must be a JSON object with keys {sorted(allowed)}")
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise CliError(f"unknown field(s) {extra} in {what}; allowed: {sorted(allowed)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise CliError(f"{what} needs " + ", ".join(f"'{k}'" for k in missing))
    return obj


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")


def _read(value, what: str, kind: type = int, size: int = 0):
    """A JSON value as kind: int (an integral number, or a string of one,
    as flags give), float (a number or a numeric string) or list (an array,
    of size items when size is set). Any other value is a CliError naming
    what, never a TypeError."""
    if kind is list:
        if isinstance(value, list) and size in (0, len(value)):
            return value
    elif not isinstance(value, (bool, list, dict)) and not (
            kind is int and isinstance(value, float) and not value.is_integer()):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    shape = {int: "an integer", float: "a number",
             list: f"an array of {size} items" if size else "an array"}[kind]
    raise CliError(f"{what} must be {shape}, got {json.dumps(value)}")


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
    _no_unknown(obj, ("minpoly", "root_index", "approx"), "algebraic number",
                ("minpoly",))
    coeffs = obj["minpoly"]
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
        raise CliError("'minpoly' must be an array of integers, constant term first")
    index = obj.get("root_index")
    index = index if index is None else _read(index, "'root_index'")
    approx = None
    if "approx" in obj:
        if index is not None:
            raise CliError("give 'root_index' or 'approx', not both")
        ap = _no_unknown(obj["approx"], ("re", "im"), "'approx'")
        approx = complex(_read(ap.get("re", 0.0), "'re'", float),
                         _read(ap.get("im", 0.0), "'im'", float))
    poly = IntPolynomial(tuple(coeffs))
    if poly.degree >= 1 and not poly.is_canonical:  # an AlgebraicError: no flag prefix
        raise AlgebraicError("minimal polynomial must be primitive with positive leading "
                             "coefficient, coefficients constant term first "
                             "(e.g. x^8 - 2 is -2,0,0,0,0,0,0,0,1)")
    return AlgebraicNumber.from_minpoly(coeffs, index=index, approx=approx)


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
        pair = _no_unknown(body, ("radical",), "torus element")["radical"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliError("'radical' takes [r, m]")
        r, m = parse_rational(pair[0]), _read(pair[1], "m in 'radical'")
        return TorusElement(radical(r, m), exponent)
    if "root_of_unity" in body:
        spec = _no_unknown(body, ("root_of_unity",), "torus element")["root_of_unity"]
        if isinstance(spec, int):
            spec = [spec]
        if not isinstance(spec, list) or not 1 <= len(spec) <= 2:
            raise CliError("'root_of_unity' takes [n] or [n, k]")
        spec = [_read(v, "'root_of_unity'") for v in spec]
        return TorusElement(root_of_unity(*spec), exponent)
    if "minpoly" in body:
        return TorusElement(parse_algebraic(body), exponent)
    raise CliError(
        "torus element needs 'radical', 'root_of_unity', 'minpoly', or a "
        "rational string"
    )


def _minpoly_literal(text: str) -> dict:
    try:
        return {"minpoly": [int(c) for c in text.split(",")]}
    except ValueError:
        raise CliError("--minpoly takes comma-separated integers c0,...,cd")


# each torus input flag, by argparse dest, as the literal an input file holds
_TORUS_FLAGS = {
    "rational": lambda v: v,
    "minpoly": _minpoly_literal,
    "radical": lambda v: {"radical": v},
    "root_of_unity": lambda v: {"root_of_unity": v},
}


def _flag_literals(args) -> List[Tuple[str, object]]:
    """(flag, literal) for every torus input on the command line, in flag
    order; --index becomes the root_index of the --minpoly literal."""
    given = [
        ("--" + dest.replace("_", "-"), literal(value))
        for dest, literal in _TORUS_FLAGS.items()
        for value in getattr(args, dest, None) or ()
    ]
    if getattr(args, "index", None) is not None:
        if not any(flag == "--minpoly" for flag, _ in given):
            raise CliError("--index needs --minpoly")
        for flag, literal in given:
            if flag == "--minpoly":
                literal["root_index"] = args.index
    return given


def _read_flag(flag: str, literal) -> TorusElement:
    try:
        return parse_torus_literal(literal)
    except CliError as exc:
        raise CliError(f"{flag}: {exc}")


def _one_input(given: list, flags: str):
    if len(given) != 1:
        raise CliError(f"give exactly one of {flags}")
    return given[0]


def parse_curve(obj) -> EllipticCurveQ:
    _no_unknown(obj, ("a", "b"), "curve", ("a", "b"))
    return EllipticCurveQ(parse_rational(obj["a"]), parse_rational(obj["b"]))


def parse_ec_point(obj) -> ECPoint:
    if obj == "O":
        return ECPoint.identity()
    _no_unknown(obj, ("x", "y"), "point (or 'O')", ("x", "y"))
    return ECPoint.of(parse_rational(obj["x"]), parse_rational(obj["y"]))


def parse_product_point(obj) -> SemiabelianPoint:
    _no_unknown(obj, ("ec", "torus"), "product point")
    ec = parse_ec_point(obj.get("ec", "O"))
    torus = tuple(parse_torus_literal(t)
                  for t in _read(obj.get("torus", []), "'torus'", list))
    return SemiabelianPoint(ec, torus)


def parse_star(obj) -> StarParams:
    _no_unknown(obj, ("r", "M", "c"), "star parameters", ("r", "M", "c"))
    return StarParams(r=_read(obj["r"], "'r'"), M=_read(obj["M"], "'M'", float),
                      c=_read(obj["c"], "'c'", float))


_MAP_KINDS = {"torus": ("power",), "elliptic": ("mult",),
              "product": ("power", "mult")}


def parse_system(obj, cfg: ExperimentConfig) -> HeightedSystem:
    """System descriptor {"domain", "map", "shift", "star"}; elliptic and
    product domains additionally carry "curve"."""
    _no_unknown(obj, ("domain", "map", "shift", "star", "curve"), "system",
                ("domain", "map"))
    domain = obj["domain"]
    if domain not in ("torus", "elliptic", "product"):
        raise CliError("system 'domain' must be torus, elliptic, or product")
    mp = _no_unknown(obj["map"], ("kind", "m"), "map descriptor", ("kind", "m"))
    if mp["kind"] not in _MAP_KINDS[domain]:
        raise CliError(f"map kind {mp['kind']!r} does not act on a {domain} domain")
    m = mp["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise CliError("map degree 'm' must be an integer")
    star = parse_star(obj["star"]) if "star" in obj else None
    curve = parse_curve(obj["curve"]) if "curve" in obj else None
    return HeightedSystem(domain, m, _read(obj.get("shift", 0.0), "'shift'", float),
                          curve, cfg.tol, star)


def parse_point_for(system: HeightedSystem, obj):
    if system.domain == "torus":
        return parse_torus_literal(obj)
    if system.domain == "elliptic":
        return require_on_curve(system.curve, parse_ec_point(obj))
    pt = parse_product_point(obj)
    require_on_curve(system.curve, pt.ec)
    return pt


# ---------------------------------------------------------------------------
# height
# ---------------------------------------------------------------------------


def cmd_height(args, cfg: ExperimentConfig) -> Output:
    given = _flag_literals(args)
    if args.curve or args.point:
        given.append(("--curve/--point", None))
    flag, literal = _one_input(
        given, "--rational, --minpoly, --radical, or --curve/--point"
    )
    if flag == "--curve/--point":
        return _curve_height(args, cfg)
    t = torus_power(_read_flag(flag, literal), args.exponent)
    try:
        value = torus_height(t, cfg.tol)
    except OverflowError as exc:
        raise CliError(f"--exponent has {t.exponent.bit_length()} bits: {exc}") from None
    payload = {"kind": "weil" if t.exponent == 1 else "torus", "input": str(t),
               "height": value, "tol": cfg.tol}
    return Output(payload, [f"h({t}) = {fmt_float(value)}"])


def _curve_height(args, cfg: ExperimentConfig) -> Output:
    if not (args.curve and args.point):
        raise CliError("curve heights need both --curve and --point")
    curve = parse_curve(load_json(args.curve))
    point = require_on_curve(curve, parse_ec_point(load_json(args.point)))
    payload = {"kind": "elliptic", "point": str(point), "tol": cfg.tol}
    lines = []
    if args.naive or not args.canonical:
        payload["naive"] = naive_height(point)
        lines.append(f"naive height    {fmt_float(payload['naive'])}")
    if args.canonical or not args.naive:
        payload["canonical"] = canonical_height(curve, point, cfg.tol)
        lines.append(f"canonical height {fmt_float(payload['canonical'])}"
                     f"  (tol {fmt_float(cfg.tol)})")
    return Output(payload, lines)


# ---------------------------------------------------------------------------
# nfunc
# ---------------------------------------------------------------------------


def cmd_nfunc(args, cfg: ExperimentConfig) -> Output:
    system = parse_system(load_json(args.system), cfg)
    if system.star is None:
        raise CliError("system descriptor has no 'star' block")
    if args.sequence:
        return _small_sequence(args, system, cfg)

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
    return Output(payload, lines, code)


def _small_sequence(args, system, cfg: ExperimentConfig) -> Output:
    if not (args.radical and args.n_max):
        raise CliError("--sequence classifies the staircase R^(1/n); "
                       "give --radical R 1 and --n-max N")
    base = parse_rational(args.radical[0][0])
    family = [TorusElement(radical(base, n), 1) for n in range(1, args.n_max + 1)]
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
    return Output(payload, lines)


def _nfunc_points(args, system, cfg: ExperimentConfig) -> list:
    torus = system.domain == "torus"
    points = [parse_point_for(system, s if torus else load_json(s))
              for s in args.point or ()]
    given = _flag_literals(args) + [
        ("--algebraic", load_json(path)) for path in args.algebraic or ()
    ]
    if (given or args.random_rationals) and not torus:
        raise CliError("--radical, --root-of-unity, --algebraic and "
                       "--random-rationals points live on a torus system")
    points += [_read_flag(flag, literal) for flag, literal in given]
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


def _orbit_table(mu) -> Table:
    return ORBIT_HEADER, [
        [str(i), fmt_float(a), fmt_float(r), fmt_float(lr)]
        for i, a, r, lr in mu.rows()
    ]


def _family(args) -> List[AlgebraicNumber]:
    _one_input([x for x in (args.radicals, args.primes_max, args.poly) if x],
               "--radicals, --primes-max, --poly")
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


def cmd_equidist(args, cfg: ExperimentConfig) -> Output:
    if cfg.out_dir is None:
        raise CliError("equidist writes CSV files; give --out-dir")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    family = _family(args)
    summary_rows = []
    orbit_files = []
    for i, alpha in enumerate(family, start=1):
        mu = orbit_measure(alpha)
        name = f"orbit_{i:04d}.csv"
        _save_csv(out / name, _orbit_table(mu))
        orbit_files.append(name)
        entry = [
            str(alpha.degree),
            fmt_float(weil_height(alpha, min(cfg.tol, 1e-9))),
            fmt_float(star_discrepancy(mu)),
        ]
        entry += [fmt_float(weyl_sum(mu, k)) for k in range(1, 6)]
        entry.append(fmt_float(radial_deviation(mu)))
        summary_rows.append(entry)
    summary = (SUMMARY_HEADER, summary_rows)
    _save_csv(out / "summary.csv", summary)
    payload = {
        "orbits": len(family),
        "summary": str(out / "summary.csv"),
        "orbit_files": orbit_files,
    }
    lines = [f"wrote {len(family)} orbit file(s) and summary.csv to {out}"]
    return Output(payload, lines, EXIT_OK, summary)


# ---------------------------------------------------------------------------
# prop-check
# ---------------------------------------------------------------------------


def _scenario_samples(scenario: dict, system: HeightedSystem) -> list:
    raw = scenario.get("samples", [])
    if not isinstance(raw, list):
        raise CliError("'samples' must be an array of point literals")
    return [parse_point_for(system, s) for s in raw]


def cmd_prop_check(args, cfg: ExperimentConfig) -> Output:
    scenario = load_json(args.scenario)
    part = scenario.get("part") if isinstance(scenario, dict) else None
    if type(part) is not int or part not in _PARTS:
        raise CliError("scenario needs 'part': 1, 2, 3, or 4")
    handler, required, optional = _PARTS[part]
    _no_unknown(scenario, ("part", "name", "samples") + required + optional,
                "scenario", required)
    payload = handler(scenario, cfg)
    payload["part"] = part
    payload["name"] = scenario.get("name", f"part{part}")
    payload["scope"] = SCOPE_LABEL

    inconclusive = any(
        "cap_exceeded" in str(row.values()) for row in payload.get("rows", [])
    )
    violations = payload["violations"]
    code = EXIT_OK if not violations else EXIT_VIOLATION
    if inconclusive:
        code = EXIT_INCONCLUSIVE
    lines = [
        f"part {part} ({payload['name']}): "
        + ("PASS" if code == EXIT_OK else "FAIL"),
        f"violations: {len(violations)}",
        f"delta: {fmt_float(payload['delta'])}",
        f"scope: {SCOPE_LABEL}",
    ]
    return Output(payload, lines, code)


def _prop1(scenario: dict, cfg: ExperimentConfig) -> dict:
    system = parse_system(scenario["system"], cfg)
    system_prime = parse_system(scenario["system_prime"], cfg)
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
    body = report.as_dict()
    if not report.analytic_ok:
        body["violations"].append({"reason": "analytic (*) fails"})
    body.update(e=e, e_prime=e_prime, star=asdict(star),
                derived_star=asdict(derived))
    return body


def _prop2(scenario: dict, cfg: ExperimentConfig) -> dict:
    system = parse_system(scenario["system"], cfg)
    m_prime = _read(scenario["m_prime"], "'m_prime'", float)
    report = check_prop2(
        system,
        parse_star(scenario["star"]),
        m_prime,
        _read(scenario.get("e_prime", 1.0), "'e_prime'", float),
        _scenario_samples(scenario, system),
        cfg.cap,
    )
    return dict(report.as_dict(), m_prime=m_prime)


def _prop3(scenario: dict, cfg: ExperimentConfig) -> dict:
    system_f = parse_system(scenario["system_f"], cfg)
    system_g = parse_system(scenario["system_g"], cfg)
    report = check_prop3(
        system_f, system_g, parse_star(scenario["star"]),
        _read(scenario["d"], "'d'", float),
        _scenario_samples(scenario, system_f), cfg.cap,
    )
    body = report.as_dict()
    if not report.d_valid:
        body["violations"].append(
            {"reason": "d does not strictly bound one-step height growth"}
        )
    return body


def _prop4(scenario: dict, cfg: ExperimentConfig) -> dict:
    system = parse_system(scenario["system"], cfg)
    system_prime = parse_system(scenario["system_prime"], cfg)
    report = check_prop4(
        scenario.get("psi", "include"),
        system,
        system_prime,
        parse_star(scenario["star"]),
        _read(scenario["m_prime"], "'m_prime'", float),
        _scenario_samples(scenario, system),
        _read(scenario.get("k", 1), "'k'"),
        cfg.cap,
    )
    body = report.as_dict()
    if not report.m_prime_ok:
        body["violations"].append({"reason": "M' must exceed alpha * M"})
    return body


# part -> (handler, required scenario keys, optional scenario keys)
_PARTS = {
    1: (_prop1, ("system", "system_prime", "star"), ()),
    2: (_prop2, ("system", "star", "m_prime"), ("e_prime",)),
    3: (_prop3, ("system_f", "system_g", "star", "d"), ()),
    4: (_prop4, ("system", "system_prime", "star", "m_prime"), ("psi", "k")),
}


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
            _no_unknown(term, ("coeff", "exponents"), "relation term",
                        ("coeff", "exponents"))
            exps = tuple(_read(e, "'exponents'")
                         for e in _read(term["exponents"], "'exponents'", list))
            terms[exps] = terms.get(exps, Fraction(0)) + parse_rational(term["coeff"])
        equations.append(terms)
    return CurveRelation.of(equations, torus_rank)


def cmd_explore(args, cfg: ExperimentConfig) -> Output:
    exp = _no_unknown(
        load_json(args.experiment),
        ("name", "curve", "torus_rank", "generators", "relation", "eps",
         "gen_bound", "rou_order", "radicals", "max_search"),
        "experiment",
        ("curve", "torus_rank", "relation", "eps"),
    )
    curve = parse_curve(exp["curve"])
    rank = _read(exp["torus_rank"], "'torus_rank'")
    generators = []
    for g in _read(exp.get("generators", []), "'generators'", list):
        pt = parse_product_point(g)
        require_on_curve(curve, pt.ec)
        generators.append(pt)
    radicals = []
    for pair in _read(exp.get("radicals", []), "'radicals'", list):
        r, m = _read(pair, "each of 'radicals'", list, 2)
        radicals.append((parse_rational(r), _read(m, "m in 'radicals'")))
    config = ExploreConfig(
        gen_bound=_read(exp.get("gen_bound", 2), "'gen_bound'"),
        rou_order=_read(exp.get("rou_order", 8), "'rou_order'"),
        radicals=tuple(radicals),
        tol=cfg.tol,
        max_search=_read(exp.get("max_search", 200_000), "'max_search'"),
    )
    report = explore_theorem(
        AmbientVariety(curve, rank), SubgroupGamma.of(generators, rank),
        _parse_relation(exp["relation"], rank), _read(exp["eps"], "'eps'", float), config,
    )
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
    return Output(report, lines)


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def cmd_orbit(args, cfg: ExperimentConfig) -> Output:
    given = _flag_literals(args)
    if args.poly:
        given.append(("--poly", load_json(args.poly)))
    flag, literal = _one_input(given, "--minpoly, --radical, --root-of-unity, --poly")
    if flag == "--poly":
        alpha = parse_algebraic(literal)
    else:
        alpha = _read_flag(flag, literal).base
    mu = orbit_measure(alpha)
    table = _orbit_table(mu)
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _save_csv(out / "orbit.csv", table)
    payload = {
        "degree": alpha.degree,
        "rows": [dict(zip(ORBIT_HEADER, row)) for row in mu.rows()],
    }
    lines = [",".join(row) for row in [table[0]] + table[1]]
    return Output(payload, lines, EXIT_OK, table)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _global_flags() -> argparse.ArgumentParser:
    """The shared flags, accepted both before and after the subcommand.

    Defaults are SUPPRESS so a subparser that does not see the flag cannot
    overwrite a value parsed before the subcommand; main() fills in
    GLOBAL_DEFAULTS afterwards."""
    g = _Parser(add_help=False)
    g.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help=f"height tolerance (default {GLOBAL_DEFAULTS['tol']})")
    g.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                   help=f"iteration cap (default {GLOBAL_DEFAULTS['cap']})")
    g.add_argument("--format", dest="fmt", choices=FORMATS,
                   default=argparse.SUPPRESS)
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
    p.add_argument("--rational", action="append", help="rational number p/q")
    p.add_argument("--minpoly", action="append",
                   help="integer coefficients c0,...,cd")
    p.add_argument("--index", type=int, default=None, help="root index")
    p.add_argument("--radical", nargs=2, action="append", metavar=("R", "M"),
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
    p.add_argument("--minpoly", action="append",
                   help="integer coefficients c0,...,cd")
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--radical", nargs=2, action="append", metavar=("R", "M"))
    p.add_argument("--root-of-unity", nargs="+", action="append",
                   metavar="N [K]")
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

# the first row whose types match an error gives its exit code; every
# library error and CliError is a ValueError, and an input too large for a
# float raises OverflowError
_EXIT_CODES = (
    (SearchSpaceError, EXIT_SEARCH_SPACE),
    (OffCurveError, EXIT_OFF_CURVE),
    ((InconclusiveComparisonError, SearchBudgetError, RootRefinementError),
     EXIT_INCONCLUSIVE),
    ((ValueError, OSError, OverflowError), EXIT_PARSE),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = ExperimentConfig(
            **{k: getattr(args, k, v) for k, v in GLOBAL_DEFAULTS.items()}
        )
        if cfg.fmt == "csv" and args.command not in CSV_COMMANDS:
            raise CliError("csv output is only available for equidist and orbit")
        out = _COMMANDS[args.command](args, cfg)
        emit(out, cfg)
        return out.code
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
