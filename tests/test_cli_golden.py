"""Golden test of the command line: fixed invocations, their stdout bytes,
exit codes, stderr when there is any, and every file they write, compared
with `cli_golden.json`.

The list covers every subcommand in each format it accepts, the shipped
scenarios, the README examples and one failing input per error exit code.
Inputs are written into a fresh directory that is the working directory
while main() runs, so written paths are relative and the bytes do not
depend on where the suite runs.

To record the expected values again (only when a change of output is
intended, and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from smallpoints.cli import main

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "scenarios"
GOLDEN = HERE / "cli_golden.json"

TORUS_SYSTEM = {
    "domain": "torus",
    "map": {"kind": "power", "m": 2},
    "shift": 0.0,
    "star": {"r": 1, "M": 0.5, "c": 1.9},
}


def _fixtures() -> dict:
    explore = json.loads((SCENARIOS / "explore_t1_equals_2.json").read_text())
    part1 = json.loads((SCENARIOS / "part1_comparable_heights.json").read_text())
    return {
        "curve.json": {"a": "0", "b": "-2"},
        "P.json": {"x": "3", "y": "5"},
        "O.json": "O",
        "off.json": {"x": "3", "y": "4"},
        "system.json": TORUS_SYSTEM,
        "far.json": dict(TORUS_SYSTEM, star={"r": 1, "M": 1e200, "c": 1.9}),
        "esys.json": {
            "domain": "elliptic", "map": {"kind": "mult", "m": 2},
            "shift": 0.0, "star": {"r": 1, "M": 1.0, "c": 1.9},
            "curve": {"a": "0", "b": "-2"},
        },
        "psys.json": {
            "domain": "product", "map": {"kind": "power", "m": 2},
            "shift": 0.5, "star": {"r": 1, "M": 1.0, "c": 1.5},
            "curve": {"a": "0", "b": "-2"},
        },
        "prod.json": {"ec": {"x": "3", "y": "5"},
                      "torus": ["2/3", {"radical": ["2", 4], "exponent": -1}]},
        "alg.json": {"root_of_unity": [12, 5], "exponent": 3},
        "lehmer.json": {"minpoly": [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]},
        "family.json": [
            "3/2",
            {"minpoly": [-1, -1, 1], "root_index": 1},
            {"minpoly": [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1],
             "approx": {"re": 1.17628, "im": 0}},
        ],
        "big.json": dict(explore, max_search=50),
        "unpaired.json": dict(explore, radicals=[5]),
        "null-m.json": {"radical": ["2", None]},
        "part1-r600.json": dict(part1, star=dict(part1["star"], r=600)),
    }


HEIGHT = [
    ("height-radical-readme", ["height", "--radical", "2", "12"]),
    ("height-rational-readme-json",
     ["height", "--rational", "22/7", "--format", "json"]),
    ("height-rational-text", ["height", "--rational", "22/7"]),
    ("height-exponent-json",
     ["--format", "json", "height", "--rational", "2/3", "--exponent", "-3"]),
    ("height-radical-exponent-text",
     ["height", "--radical", "8/27", "3", "--exponent", "2"]),
    ("height-minpoly-index-text",
     ["height", "--minpoly=-2,0,0,0,0,0,0,0,1", "--index", "3"]),
    ("height-minpoly-json", ["--format", "json", "height", "--minpoly=-1,-1,1"]),
    ("height-minpoly-exponent-2-1000",
     ["height", "--minpoly=-1,-1,0,0,0,1", "--exponent", str(2**1000)]),
    ("height-curve-readme",
     ["height", "--curve", "curve.json", "--point", "P.json", "--canonical"]),
    ("height-curve-naive-text",
     ["height", "--curve", "curve.json", "--point", "P.json", "--naive"]),
    ("height-curve-both-json",
     ["--format", "json", "height", "--curve", "curve.json", "--point",
      "P.json", "--tol", "1e-8"]),
    ("height-curve-identity-text",
     ["height", "--curve", "curve.json", "--point", "O.json"]),
]

NFUNC = [
    ("nfunc-radical-readme",
     ["nfunc", "--system", "system.json", "--radical", "2", "8"]),
    ("nfunc-radical-json",
     ["--format", "json", "nfunc", "--system", "system.json",
      "--radical", "2", "8", "--radical", "3", "5"]),
    ("nfunc-root-of-unity-text",
     ["nfunc", "--system", "system.json", "--root-of-unity", "5", "2"]),
    ("nfunc-mixed-json",
     ["--format", "json", "nfunc", "--system", "system.json", "--point", "2",
      "--point", "5/7", "--radical", "2", "8", "--root-of-unity", "5",
      "--root-of-unity", "5", "2", "--algebraic", "alg.json"]),
    ("nfunc-random-text",
     ["nfunc", "--system", "system.json", "--random-rationals", "5",
      "--seed", "7"]),
    ("nfunc-random-readme",
     ["nfunc", "--system", "system.json", "--random-rationals", "10",
      "--seed", "7"]),
    ("nfunc-sequence-text",
     ["nfunc", "--system", "system.json", "--sequence", "--radical", "2",
      "1", "--n-max", "20"]),
    ("nfunc-sequence-json",
     ["--format", "json", "nfunc", "--system", "system.json", "--sequence",
      "--radical", "2", "1", "--n-max", "20"]),
    ("nfunc-sequence-readme",
     ["nfunc", "--system", "system.json", "--radical", "2", "1",
      "--sequence", "--n-max", "200"]),
    ("nfunc-cap-text",
     ["--cap", "3", "nfunc", "--system", "system.json", "--radical", "2",
      "256", "--point", "3"]),
    ("nfunc-cap-json",
     ["--format", "json", "nfunc", "--system", "system.json", "--radical",
      "2", "256", "--cap", "3"]),
    ("nfunc-elliptic-json",
     ["--format", "json", "nfunc", "--system", "esys.json", "--point",
      "P.json", "--point", "O.json"]),
    ("nfunc-product-text",
     ["nfunc", "--system", "psys.json", "--point", "prod.json"]),
    ("nfunc-far-threshold-text",
     ["--cap", "1000", "nfunc", "--system", "far.json", "--point", "3/2"]),
]

EQUIDIST = [
    ("equidist-radicals-text",
     ["equidist", "--radicals", "2", "--n-max", "6", "-o", "out"]),
    ("equidist-readme", ["equidist", "--radicals", "2", "--n-max", "50",
                         "-o", "out/"]),
    ("equidist-primes-json",
     ["--format", "json", "equidist", "--primes-max", "13", "-o", "out"]),
    ("equidist-poly-text", ["equidist", "--poly", "family.json", "-o", "o"]),
    ("equidist-radicals-csv",
     ["--format", "csv", "equidist", "--radicals", "3/2", "--n-max", "4",
      "-o", "out"]),
    ("equidist-poly-csv",
     ["equidist", "--poly", "lehmer.json", "-o", "o", "--format", "csv"]),
]

PROP_CHECK = [
    (f"prop-check-{name}-{fmt}",
     ["--format", fmt, "prop-check", "--scenario",
      f"{{scenarios}}/{name}.json"])
    for name in ("part1_comparable_heights", "part2_threshold_shift",
                 "part3_commuting_maps", "part4_factor_inclusion")
    for fmt in ("text", "json")
] + [
    ("prop-check-part1-r600-json",
     ["--format", "json", "prop-check", "--scenario", "part1-r600.json"]),
]

EXPLORE = [
    ("explore-readme",
     ["explore", "--experiment", "{scenarios}/explore_t1_equals_2.json"]),
    ("explore-json",
     ["--format", "json", "explore", "--experiment",
      "{scenarios}/explore_t1_equals_2.json"]),
    ("explore-rou-coset",
     ["explore", "--experiment", "{scenarios}/explore_rou_coset.json"]),
]

ORBIT = [
    ("orbit-radical-readme-csv",
     ["orbit", "--radical", "2", "5", "--format", "csv"]),
    ("orbit-radical-text", ["orbit", "--radical", "2", "5"]),
    ("orbit-root-of-unity-json",
     ["--format", "json", "orbit", "--root-of-unity", "8"]),
    ("orbit-root-of-unity-text", ["orbit", "--root-of-unity", "12", "5"]),
    ("orbit-minpoly-text",
     ["orbit", "--minpoly", "1,1,0,-1,-1,-1,-1,-1,0,1,1", "--index", "2"]),
    ("orbit-poly-json", ["--format", "json", "orbit", "--poly", "lehmer.json"]),
    ("orbit-tied-angles-json",
     ["--format", "json", "orbit", "--minpoly", "1,0,6,0,1"]),
    ("orbit-out-dir-text", ["orbit", "--radical", "2", "3", "-o", "o"]),
    ("orbit-out-dir-csv",
     ["--format", "csv", "orbit", "--radical", "3", "4", "-o", "o"]),
]

FAILING = [
    ("exit1-two-inputs", ["height", "--rational", "2", "--radical", "2", "3"]),
    ("exit1-csv-height", ["--format", "csv", "height", "--rational", "2"]),
    ("exit1-unknown-field",
     ["nfunc", "--system", "curve.json", "--point", "2"]),
    ("exit1-unpaired-radical", ["explore", "--experiment", "unpaired.json"]),
    ("exit1-null-radical-m",
     ["nfunc", "--system", "system.json", "--algebraic", "null-m.json"]),
    ("exit1-exponent-overflow",
     ["height", "--rational", "2", "--exponent", str(10**400)]),
    ("exit1-exponent-infinite-height",
     ["height", "--rational", "20", "--exponent", str(2**1023)]),
    ("exit2-search-space", ["explore", "--experiment", "big.json"]),
    ("exit3-off-curve",
     ["height", "--curve", "curve.json", "--point", "off.json"]),
    ("exit3-off-curve-json",
     ["--format", "json", "nfunc", "--system", "esys.json", "--point",
      "off.json"]),
]

CASES = dict(HEIGHT + NFUNC + EQUIDIST + PROP_CHECK + EXPLORE + ORBIT + FAILING)


def run_case(argv) -> dict:
    """Run main(argv) in a fresh directory holding the fixtures; return the
    exit code, stdout, stderr if any and every file written there."""
    fixtures = _fixtures()
    argv = [a.replace("{scenarios}", str(SCENARIOS)) for a in argv]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, body in fixtures.items():
            (root / name).write_text(json.dumps(body), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = {
            p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in fixtures
        }
    result = {"code": code, "stdout": out.getvalue(), "files": files}
    if err.getvalue():
        result["stderr"] = err.getvalue()
    return result


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_case_list_matches_golden_file():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    assert run_case(CASES[case]) == _golden()[case]


if __name__ == "__main__":
    recorded = {case: run_case(argv) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
