"""End-to-end tests of the command line interface.

Each test invokes main() in process and asserts on the exit code and the
emitted JSON/CSV, including the documented exit-code contract and the
byte-identical rerun guarantee.
"""

import json
import math
from pathlib import Path

import pytest

from smallpoints.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

LEHMER_COEFFS = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]

TORUS_SYSTEM = {
    "domain": "torus",
    "map": {"kind": "power", "m": 2},
    "shift": 0.0,
    "star": {"r": 1, "M": 0.5, "c": 1.9},
}


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestHeight:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "height",
                           "--rational", "2/3")
        assert code == 0
        got = json.loads(out)
        assert got["kind"] == "weil"
        assert got["height"] == pytest.approx(math.log(3), abs=1e-10)

    def test_radical(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "height",
                           "--radical", "2", "12")
        assert code == 0
        assert json.loads(out)["height"] == pytest.approx(
            math.log(2) / 12, abs=1e-10
        )

    def test_torus_exponent_scales(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "height",
                           "--rational", "2/3", "--exponent", "-3")
        assert code == 0
        got = json.loads(out)
        assert got["kind"] == "torus"
        assert got["height"] == pytest.approx(3 * math.log(3), abs=1e-9)

    def test_degree_first_minpoly_rejected(self, capsys):
        code, _, err = run(capsys, "height",
                           "--minpoly", "1,0,0,0,0,0,0,0,-2", "--index", "0")
        assert code == 1
        assert "constant term first" in err

    def test_canonical_minpoly_accepted(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "height",
                           "--minpoly=-2,0,0,0,0,0,0,0,1", "--index", "0")
        assert code == 0
        assert json.loads(out)["height"] == pytest.approx(
            math.log(2) / 8, abs=1e-10
        )

    def test_curve_heights(self, capsys, tmp_path):
        curve = write(tmp_path, "e.json", {"a": "0", "b": "-2"})
        point = write(tmp_path, "p.json", {"x": "3", "y": "5"})
        code, out, _ = run(capsys, "--format", "json", "height",
                           "--curve", curve, "--point", point,
                           "--canonical", "--naive", "--tol", "1e-8")
        assert code == 0
        got = json.loads(out)
        assert got["naive"] == pytest.approx(math.log(3), abs=1e-10)
        assert got["canonical"] == pytest.approx(1.34957683568, abs=1e-7)

    def test_off_curve_exit_3(self, capsys, tmp_path):
        curve = write(tmp_path, "e.json", {"a": "0", "b": "-2"})
        point = write(tmp_path, "p.json", {"x": "3", "y": "4"})
        code, _, err = run(capsys, "height", "--curve", curve,
                           "--point", point)
        assert code == 3
        assert "not on" in err

    def test_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "height", "--rational", "2",
                           "--radical", "2", "3")
        assert code == 1

    def test_index_without_minpoly_rejected(self, capsys):
        code, out, err = run(capsys, "height", "--rational", "2",
                             "--index", "3")
        assert code == 1 and out == ""
        assert "--index" in err and "--minpoly" in err

    def test_curve_with_torus_input_rejected(self, capsys, tmp_path):
        curve = write(tmp_path, "e.json", {"a": "0", "b": "-2"})
        point = write(tmp_path, "p.json", {"x": "3", "y": "5"})
        code, _, err = run(capsys, "height", "--curve", curve, "--point",
                           point, "--rational", "2")
        assert code == 1
        assert "exactly one" in err

    def test_unknown_curve_field_rejected(self, capsys, tmp_path):
        curve = write(tmp_path, "e.json", {"a": "0", "b": "-2", "c": "1"})
        point = write(tmp_path, "p.json", "O")
        code, _, err = run(capsys, "height", "--curve", curve,
                           "--point", point)
        assert code == 1
        assert "unknown field" in err


class TestNFunc:
    def test_goldens(self, capsys, tmp_path):
        sys_file = write(tmp_path, "sys.json", TORUS_SYSTEM)
        code, out, _ = run(capsys, "--format", "json", "nfunc",
                           "--system", sys_file, "--point", "2",
                           "--radical", "2", "8", "--root-of-unity", "5")
        assert code == 0
        got = json.loads(out)
        assert [r["n"] for r in got["results"]] == ["1", "3", "preperiodic"]
        assert got["delta"] == 0.0

    def test_elliptic_system(self, capsys, tmp_path):
        sys_file = write(tmp_path, "sys.json", {
            "domain": "elliptic",
            "map": {"kind": "mult", "m": 2},
            "shift": 0.0,
            "star": {"r": 1, "M": 1.0, "c": 1.9},
            "curve": {"a": "0", "b": "-2"},
        })
        point = write(tmp_path, "p.json", {"x": "3", "y": "5"})
        code, out, _ = run(capsys, "--format", "json", "nfunc",
                           "--system", sys_file, "--point", point)
        assert code == 0
        assert json.loads(out)["results"][0]["n"] == "1"

    def test_sequence_mode(self, capsys, tmp_path):
        sys_file = write(tmp_path, "sys.json", TORUS_SYSTEM)
        code, out, _ = run(capsys, "--format", "json", "nfunc",
                           "--system", sys_file, "--sequence",
                           "--radical", "2", "1", "--n-max", "40")
        assert code == 0
        got = json.loads(out)
        assert got["n_diverges"] and got["heights_to_zero"]
        assert got["is_small_sequence"]

    def test_cap_exceeded_is_inconclusive(self, capsys, tmp_path):
        sys_file = write(tmp_path, "sys.json", TORUS_SYSTEM)
        code, out, _ = run(capsys, "--format", "json", "--cap", "4", "nfunc",
                           "--system", sys_file, "--radical", "2", "256")
        assert code == 4
        assert json.loads(out)["results"][0]["n"] == "cap_exceeded"

    def test_root_of_unity_takes_at_most_two_values(self, capsys, tmp_path):
        sys_file = write(tmp_path, "sys.json", TORUS_SYSTEM)
        code, out, err = run(capsys, "nfunc", "--system", sys_file,
                             "--root-of-unity", "5", "2", "3")
        assert code == 1 and out == ""
        assert "--root-of-unity" in err

    def test_random_rationals_seeded(self, capsys, tmp_path):
        sys_file = write(tmp_path, "sys.json", TORUS_SYSTEM)
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "json", "nfunc",
                               "--system", sys_file,
                               "--random-rationals", "5", "--seed", "11")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0])["results"]) == 5

    def test_missing_star_is_malformed(self, capsys, tmp_path):
        body = {k: v for k, v in TORUS_SYSTEM.items() if k != "star"}
        sys_file = write(tmp_path, "sys.json", body)
        code, _, err = run(capsys, "nfunc", "--system", sys_file,
                           "--point", "2")
        assert code == 1
        assert "star" in err

    def test_unknown_system_field_rejected(self, capsys, tmp_path):
        body = dict(TORUS_SYSTEM, speed="fast")
        sys_file = write(tmp_path, "sys.json", body)
        code, _, err = run(capsys, "nfunc", "--system", sys_file,
                           "--point", "2")
        assert code == 1
        assert "unknown field" in err

    def test_wrong_map_kind_rejected(self, capsys, tmp_path):
        body = dict(TORUS_SYSTEM, map={"kind": "mult", "m": 2})
        sys_file = write(tmp_path, "sys.json", body)
        code, _, err = run(capsys, "nfunc", "--system", sys_file,
                           "--point", "2")
        assert code == 1


class TestEquidist:
    def test_radical_family(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "equidist", "--radicals", "2",
                         "--n-max", "6", "-o", str(out_dir))
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == ("degree,height,discrepancy,"
                            "weyl1,weyl2,weyl3,weyl4,weyl5,radial_dev")
        assert len(lines) == 7
        for n, line in enumerate(lines[1:], start=1):
            cols = line.split(",")
            assert float(cols[2]) == pytest.approx(1 / n, abs=1e-9)
            assert float(cols[8]) == pytest.approx(math.log(2) / n, abs=1e-9)
        orbit = (out_dir / "orbit_0006.csv").read_text().splitlines()
        assert orbit[0] == "index,angle,radius,log_radius"
        assert len(orbit) == 7

    def test_lehmer_poly_orbit_has_ten_rows(self, capsys, tmp_path):
        poly = write(tmp_path, "lehmer.json", {"minpoly": LEHMER_COEFFS})
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "equidist", "--poly", poly, "-o", str(out_dir))
        assert code == 0
        rows = (out_dir / "orbit_0001.csv").read_text().splitlines()
        assert len(rows) == 11
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("10,")

    def test_empty_family(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "equidist", "--radicals", "2",
                         "--n-max", "0", "-o", str(out_dir))
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        blobs = []
        for d in ("a", "b"):
            out_dir = tmp_path / d
            code, _, _ = run(capsys, "equidist", "--primes-max", "13",
                             "-o", str(out_dir))
            assert code == 0
            blob = b"".join(
                p.read_bytes() for p in sorted(out_dir.iterdir())
            )
            blobs.append(blob)
        assert blobs[0] == blobs[1]

    def test_csv_format_prints_summary_and_writes_same_files(self, capsys,
                                                             tmp_path):
        code, _, _ = run(capsys, "equidist", "--radicals", "2", "--n-max",
                         "5", "-o", str(tmp_path / "text"))
        assert code == 0
        code, out, err = run(capsys, "--format", "csv", "equidist",
                             "--radicals", "2", "--n-max", "5",
                             "-o", str(tmp_path / "csv"))
        assert code == 0, err
        names = sorted(p.name for p in (tmp_path / "text").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "csv").iterdir())
        for name in names:
            assert ((tmp_path / "csv" / name).read_bytes()
                    == (tmp_path / "text" / name).read_bytes())
        assert out == (tmp_path / "csv" / "summary.csv").read_text()

    def test_needs_out_dir(self, capsys):
        code, _, err = run(capsys, "equidist", "--radicals", "2",
                           "--n-max", "3")
        assert code == 1
        assert "out-dir" in err


class TestPropCheck:
    @pytest.mark.parametrize("name", [
        "part1_comparable_heights",
        "part2_threshold_shift",
        "part3_commuting_maps",
        "part4_factor_inclusion",
    ])
    def test_shipped_scenarios_pass(self, capsys, name):
        code, out, _ = run(capsys, "--format", "json", "prop-check",
                           "--scenario", str(SCENARIOS / f"{name}.json"))
        assert code == 0
        got = json.loads(out)
        assert got["violations"] == []
        assert "delta" in got
        assert got["scope"] == "verified on sample / exact on class"

    def test_part2_offset_bound(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "prop-check",
                           "--scenario",
                           str(SCENARIOS / "part2_threshold_shift.json"))
        assert code == 0
        got = json.loads(out)
        assert got["p"] == 2 and got["offset"] == 2
        for row in got["rows"]:
            if row["n"] == "preperiodic":
                assert row["n_prime"] == "preperiodic"
            else:
                assert int(row["n"]) <= int(row["n_prime"]) <= int(row["n"]) + 2

    def test_part4_inclusion_equality(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "prop-check",
                           "--scenario",
                           str(SCENARIOS / "part4_factor_inclusion.json"))
        assert code == 0
        got = json.loads(out)
        assert got["equalities"] == len(got["rows"])

    def test_corrupted_star_exit_1(self, capsys, tmp_path):
        body = json.loads(
            (SCENARIOS / "part2_threshold_shift.json").read_text()
        )
        body["star"]["c"] = 0.9
        path = write(tmp_path, "bad.json", body)
        code, _, err = run(capsys, "prop-check", "--scenario", path)
        assert code == 1
        assert "c must exceed 1" in err

    def test_invalid_d_exit_5(self, capsys, tmp_path):
        body = json.loads(
            (SCENARIOS / "part3_commuting_maps.json").read_text()
        )
        body["d"] = 1.5  # below the squaring map's growth factor
        path = write(tmp_path, "bad.json", body)
        code, out, _ = run(capsys, "--format", "json", "prop-check",
                           "--scenario", path)
        assert code == 5
        assert json.loads(out)["violations"]

    def test_unknown_scenario_field_rejected(self, capsys, tmp_path):
        body = json.loads(
            (SCENARIOS / "part2_threshold_shift.json").read_text()
        )
        body["mystery"] = 1
        path = write(tmp_path, "bad.json", body)
        code, _, err = run(capsys, "prop-check", "--scenario", path)
        assert code == 1
        assert "unknown field" in err


class TestExplore:
    def test_single_hit_scenario(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "explore",
                           "--experiment",
                           str(SCENARIOS / "explore_t1_equals_2.json"))
        assert code == 0
        got = json.loads(out)
        assert got["hit_count"] == 1
        hit = got["hits"][0]
        assert hit["gamma_coefficients"] == [1]
        assert hit["membership"] == "ExactYes"
        assert hit["certificate"] == "In"
        assert got["cosets"] == [[0]]
        assert "NOT a proof" in got["disclaimer"]

    def test_byte_identical_reruns(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "--format", "json", "explore",
                               "--experiment",
                               str(SCENARIOS / "explore_t1_equals_2.json"))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_oversized_exit_2(self, capsys, tmp_path):
        body = json.loads(
            (SCENARIOS / "explore_t1_equals_2.json").read_text()
        )
        body["max_search"] = 50
        path = write(tmp_path, "big.json", body)
        code, _, err = run(capsys, "explore", "--experiment", path)
        assert code == 2
        assert "110" in err and "50" in err

    def test_disclaimer_heads_text_output(self, capsys):
        code, out, _ = run(capsys, "explore", "--experiment",
                           str(SCENARIOS / "explore_t1_equals_2.json"))
        assert code == 0
        assert out.splitlines()[0].startswith("Absence of hits is NOT a proof")


class TestOrbit:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "orbit",
                           "--radical", "2", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,angle,radius,log_radius"
        assert len(lines) == 6

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "orbit",
                           "--root-of-unity", "8")
        assert code == 0
        got = json.loads(out)
        assert got["degree"] == 4
        for row in got["rows"]:
            assert row["radius"] == pytest.approx(1.0, abs=1e-10)
            # printed floats parse back to exactly the reported values
            assert row["angle"] == float(f"{row['angle']:.12g}")

    def test_writes_file_with_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        code, _, _ = run(capsys, "orbit", "--radical", "2", "3",
                         "-o", str(out_dir))
        assert code == 0
        assert (out_dir / "orbit.csv").read_text().splitlines()[0] == \
            "index,angle,radius,log_radius"


    def test_no_input_names_orbit_flags(self, capsys):
        code, out, err = run(capsys, "orbit")
        assert code == 1 and out == ""
        for flag in ("--minpoly", "--radical", "--root-of-unity", "--poly"):
            assert flag in err
        assert "--rational" not in err and "--curve" not in err

    def test_two_inputs_rejected(self, capsys, tmp_path):
        poly = write(tmp_path, "lehmer.json", {"minpoly": LEHMER_COEFFS})
        code, out, err = run(capsys, "orbit", "--radical", "2", "3",
                             "--poly", poly)
        assert code == 1 and out == ""
        assert "exactly one" in err and "--poly" in err

    def test_root_of_unity_takes_at_most_two_values(self, capsys):
        code, out, err = run(capsys, "orbit", "--root-of-unity", "12", "5", "7")
        assert code == 1 and out == ""
        assert "--root-of-unity" in err


class TestConfig:
    def test_bad_format_rejected(self, capsys):
        code, _, _ = run(capsys, "--format", "yaml", "height",
                         "--rational", "2")
        assert code == 1

    def test_bad_tol_rejected(self, capsys):
        code, _, err = run(capsys, "--tol", "0", "height", "--rational", "2")
        assert code == 1
        assert "tolerance" in err

    def test_bad_cap_rejected(self, capsys):
        code, _, err = run(capsys, "--cap", "0", "height", "--rational", "2")
        assert code == 1
        assert "cap" in err

    def test_trailing_global_flags_accepted(self, capsys):
        code1, out1, _ = run(capsys, "height", "--rational", "2/3",
                             "--format", "json")
        code2, out2, _ = run(capsys, "--format", "json", "height",
                             "--rational", "2/3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_not_available_for_height(self, capsys):
        code, _, err = run(capsys, "--format", "csv", "height",
                           "--rational", "2")
        assert code == 1
        assert "csv" in err
