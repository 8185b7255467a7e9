"""Tests for the benchmark itself: inputs, oracles, tracing, output names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _blocks(name, seed, count=3):
    w = workloads.WORKLOADS[name]
    return json.dumps([w.make_block(seed, i) for i in range(count)], sort_keys=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    assert _blocks(name, 7) == _blocks(name, 7)
    assert _blocks(name, 7) != _blocks(name, 8)
    # a fresh interpreter with another hash seed builds the same bytes
    code = (f"import json, workloads; w = workloads.WORKLOADS[{name!r}]; "
            "print(json.dumps([w.make_block(7, i) for i in range(3)], sort_keys=True))")
    got = subprocess.run(
        [sys.executable, "-c", code], cwd=RUN.parent, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "12345"}, timeout=120,
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == _blocks(name, 7)


def test_blocks_follow_the_stated_input_ranges():
    torus = workloads.TorusOrbits.make_block(3, 0)
    assert sum(i["kind"] == "root_of_unity" for i in torus) == 2
    assert all(2 <= i["n"] <= 200 and i["p"] != i["q"]
               for i in torus if i["kind"] == "radical")
    curve = workloads.CurveHeights.make_block(3, 0) + workloads.CurveHeights.make_block(3, 1)
    assert sorted((i["pair"], i["k"]) for i in curve) == [
        (c, k) for c in range(5) for k in range(1, 17)]
    grid = workloads.ExploreGrid.make_block(3, 0)
    assert sorted((i["gen_bound"], i["rou_order"]) for i in grid) == [
        (g, o) for g in (1, 2) for o in range(6, 13)]
    for i in grid:
        assert i["r"] != i["s"] and i["radical"] not in (i["r"], i["s"])
        assert max(abs(i["a"]), abs(i["b"])) <= i["gen_bound"]
    # generator sizes follow the schedule; the seed only plants (a, b)
    sizes = ("r", "s", "radical", "gen_bound", "rou_order")
    other = workloads.ExploreGrid.make_block(4, 0)
    assert [[i[k] for k in sizes] for i in grid] == [[i[k] for k in sizes] for i in other]


def _cheap(name, item):
    if name == "torus-orbits":
        return item["kind"] == "root_of_unity" or item["n"] <= 60
    if name == "curve-heights":
        return item["k"] <= 4
    return item["gen_bound"] == 1 and item["rou_order"] <= 8


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracles_pass_on_a_slice(name):
    w = workloads.WORKLOADS[name]
    oracle = w.prepare()
    tracer = Tracer()
    items = [i for i in w.make_block(0, 0) if _cheap(name, i)][:4]
    assert items
    for inp in items:
        out = w.run(inp, tracer, oracle)
        assert w.check(inp, out, oracle) == [], inp


def test_oracles_reject_wrong_outputs():
    t = workloads.TorusOrbits
    inp = {"kind": "radical", "p": 3, "q": 2, "n": 10}
    out = t.run(inp, Tracer(), None)
    assert t.check(inp, out, None) == []
    for key, value in (("height", out["height"] * 1.001), ("n", "7"),
                       ("weyl", [0.5] + out["weyl"][1:]), ("degree", 5)):
        bad = dict(out, **{key: value})
        assert t.check(inp, bad, None), key

    c = workloads.CurveHeights
    oracle = c.prepare()
    inp = {"pair": 2, "k": 3}
    out = c.run(inp, Tracer(), oracle)
    assert c.check(inp, out, oracle) == []
    assert c.check(inp, dict(out, height=out["height"] + 1e-6), oracle)
    assert c.check(inp, dict(out, torsion=True), oracle)

    g = workloads.ExploreGrid
    inp = {"r": 3, "s": 5, "gen_bound": 1, "rou_order": 6, "radical": 2, "a": 1, "b": -1}
    out = g.run(inp, Tracer(), None)
    assert g.check(inp, out, None) == []
    wrong = copy.deepcopy(out)
    wrong["hits"][0]["gamma_coefficients"] = [0, -1]
    assert g.check(inp, wrong, None)
    assert g.check(inp, dict(out, hit_count=2), None)


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.spans = [("item", 0.0, 10.0, -1, 0), ("a", 1.0, 3.0, 0, 0),
                ("b", 4.0, 8.0, 0, 0), ("c", 5.0, 6.0, 2, 0)]
    s = tr.summary()
    assert s["item"] == (1, 10.0, 4.0)
    assert s["a"] == (1, 2.0, 2.0)
    assert s["b"] == (1, 4.0, 3.0)
    assert s["c"] == (1, 1.0, 1.0)


def test_live_spans_record_parent_and_item():
    tr = Tracer()
    tr.begin_item(3)
    with tr.span("item"):
        with tr.span("inner"):
            pass
    (outer, inner) = tr.spans
    assert outer[0] == "item" and outer[3] == -1 and outer[4] == 3
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 3
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_tail_percentile_needs_ten_items_beyond():
    assert run.tail_percentile(400, 95) == 95
    assert run.tail_percentile(100, 90) == 90
    assert run.tail_percentile(60, 90) == 83
    assert run.tail_percentile(12, 90) == 50
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert run.percentile([7.0], 90) == pytest.approx(7.0)
    xs = [float(i) for i in range(1, 1001)]
    assert run.percentile(xs, 90) == pytest.approx(900.5, abs=1.0)


def test_scales_use_the_calibrations_around_each_item():
    ref = run.REFERENCE_S
    m = run.Measured(calibrations=[ref, ref, 3 * ref])
    assert m.scales() == pytest.approx([1.0, 0.5])
    assert run.calibrate() > 0


def test_benchmark_json_matches_the_declarations():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    got = subprocess.run(
        [sys.executable, str(RUN), "--workload", "torus-orbits", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']} " in "\n" + got.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-orbits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert got.returncode != 0
    assert '"metrics"' not in got.stdout
