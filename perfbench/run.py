"""The smallpoints benchmark: one seeded workload, one closed-loop client.

    python3 perfbench/run.py --workload torus-orbits --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. The package is imported from
`src/` (it need not be installed). Items run one after another in this one
process, in whole input blocks, until --seconds reference seconds have
passed; every item's output is checked against an oracle. Human-readable
lines go to stdout first, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the items run inside spans, the metrics are the per-layer
ones, and the spans are written to .bench_out/.

End-to-end times are in reference seconds: each item's wall and CPU time
is scaled by REFERENCE_S over the time a fixed pure-Python loop took next
to the item (see `calibrate`). On a host running at the reference speed
they equal wall seconds; the wall-clock figures are printed too.

    python3 perfbench/run.py --write-manifest

rewrites BENCHMARK.json from the declarations below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

RUN_SECONDS = 16
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # items that must lie beyond the tail percentile
CALIBRATION_LOOPS = 30_000
REFERENCE_S = 1.25e-3  # the calibration loop's duration at the reference speed

# (name, unit, better, bound): a user-visible figure of one run
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_item", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# spans the benchmark records around its calls into each module
SPANS = (
    "item",
    "algebraic.radical",
    "algebraic.root_of_unity",
    "algebraic.weil_height",
    "elliptic.ec_mul",
    "elliptic.is_torsion",
    "elliptic.canonical_height",
    "dynamics.n_function",
    "equidist.orbit_measure",
    "equidist.stats",
    "semiabelian.explore_theorem",
)
FAILURE_KINDS = ("RootRefinementError", "OracleMismatch", "other")

# (name, unit, better) from the traced run
PER_LAYER = tuple(
    [(f"{s}.calls", "count", "higher") for s in SPANS]
    + [(f"{s}.{part}", unit, "lower") for s in SPANS
       for part, unit in (("busy_s", "s"), ("self_s", "s"), ("share", "ratio"))]
    + [
        ("algebraic.degree_sum", "count", "higher"),
        ("algebraic.roots_cache.hit_ratio", "ratio", "higher"),
        ("algebraic.roots_cache.misses", "count", "lower"),
        ("elliptic.x_bits_sum", "count", "higher"),
        ("semiabelian.search_size", "count", "higher"),
        ("semiabelian.membership_tests", "count", "higher"),
        ("semiabelian.in_ball_ratio", "ratio", "higher"),
        ("semiabelian.hit_ratio", "ratio", "higher"),
        ("semiabelian.boundary_skipped", "count", "lower"),
        ("setup.import_s", "s", "lower"),
        ("setup.inputs_s", "s", "lower"),
        ("setup.oracle_s", "s", "lower"),
        ("failed_frac", "ratio", "lower"),
        ("item_tail_pct", "pct", "higher"),
        ("tracing.overhead_frac", "ratio", "lower"),
    ]
    + [(f"failures.{kind}", "count", "lower") for kind in FAILURE_KINDS]
)


def manifest(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def percentile(sorted_xs, pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile.

    A weighted mean of the order statistics with Beta((n+1)p, (n+1)(1-p))
    weights: its spread from run to run is well below that of the single
    order statistic nearest the percentile when a run holds few items of
    very different cost. Ranks more than seven standard deviations from
    the percentile carry weights below 1e-11 and are skipped."""
    from mpmath import betainc, mp

    n = len(sorted_xs)
    q = pct / 100.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    half = 7 * math.sqrt(n * q * (1 - q)) + 2
    lo, hi = max(0, int(q * n - half)), min(n, int(q * n + half) + 1)
    with mp.workdps(15):
        cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(lo, hi + 1)]
    weights = [c1 - c0 for c0, c1 in zip(cdf, cdf[1:])]
    return sum(w * x for w, x in zip(weights, sorted_xs[lo:hi])) / sum(weights)


def tail_percentile(count: int, planned: int) -> int:
    """The workload's planned percentile when at least TAIL_BEYOND items
    lie beyond it, else the highest whole percentile (not below 50) that
    leaves them."""
    if count * (100 - planned) >= 100 * TAIL_BEYOND:
        return planned
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / count)))


def environment() -> dict:
    import numpy
    import mpmath
    import sympy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_lib = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                 capture_output=True, text=True)
            commit = got.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_lib,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "commit": commit,
    }


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The host's speed can swing by half between phases lasting tens of
    seconds when it shares its cores; a timing scaled by
    REFERENCE_S / calibrate() taken next to it no longer depends on the
    phase it fell in. The loop touches nothing of the package."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - t0


def time_setup(workload: str, seed: int) -> float:
    """Interpreter start to the first item in a fresh process, in reference
    seconds: the child imports smallpoints, builds the first input block,
    says so, then calibrates."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed * REFERENCE_S / float(rest)


def import_library():
    if not (SRC / "smallpoints").is_dir():
        raise SystemExit(f"error: no smallpoints package under {SRC}")
    sys.path.insert(0, str(SRC))
    import smallpoints  # noqa: F401  (timed: this is the user's import)


@dataclass
class Measured:
    """One timed phase, per item, in wall seconds."""

    latencies: list = field(default_factory=list)
    slots: list = field(default_factory=list)  # the item plus its check
    cpu: list = field(default_factory=list)  # process CPU time of the slot
    calibrations: list = field(default_factory=list)  # before each item, after the last
    failures: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)
    cache: tuple = None  # (hits, misses) of the root cache, None if gone

    def scales(self) -> list:
        """Per item, reference seconds per wall second: REFERENCE_S over
        the mean of the calibrations taken just before and just after."""
        cal = self.calibrations
        return [2 * REFERENCE_S / (a + b) for a, b in zip(cal, cal[1:])]


def run(workload, seed: int, seconds: float, tracer, first_block, oracle) -> Measured:
    """Closed loop, one item at a time, in whole input blocks: a new block
    starts while the items so far took fewer than `seconds` reference
    seconds, so how many blocks a run holds does not hang on the host's
    speed. Block 0 was built in set-up; later blocks between items."""
    from smallpoints import algebraic

    # the root cache's counters; None once the cache is gone
    cache_info = getattr(getattr(algebraic, "_ordered_roots", None), "cache_info", None)
    cache_before = cache_info() if cache_info else None
    m = Measured()
    block, index = first_block, 0
    elapsed_ref = 0.0
    while index == 0 or elapsed_ref < seconds:
        if index:
            block = workload.make_block(seed, index)
        for inp in block:
            m.calibrations.append(calibrate())
            tracer.begin_item(len(m.latencies))
            out = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with tracer.span("item"):
                    out = workload.run(inp, tracer, oracle)
            except Exception as exc:  # every failure is counted by type
                m.failures[type(exc).__name__] += 1
            m.latencies.append(time.perf_counter() - t0)
            if out is not None:
                problems = workload.check(inp, out, oracle)
                if problems:
                    m.failures["OracleMismatch"] += 1
                    m.mismatches.append((inp, problems))
            m.slots.append(time.perf_counter() - t0)
            m.cpu.append(time.process_time() - c0)
            elapsed_ref += m.slots[-1] * REFERENCE_S / m.calibrations[-1]
        index += 1
    m.calibrations.append(calibrate())
    if cache_info:
        after = cache_info()
        m.cache = (after.hits - cache_before.hits, after.misses - cache_before.misses)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_manifest:
        sys.path.insert(0, str(SRC))
        import workloads

        text = json.dumps(manifest(workloads.WORKLOADS), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0

    t_import = time.perf_counter()
    import_library()
    import_s = time.perf_counter() - t_import
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    t_inputs = time.perf_counter()
    first_block = workload.make_block(args.seed, 0)
    inputs_s = time.perf_counter() - t_inputs
    if args.setup_probe:
        print("ready", flush=True)
        print(statistics.median(calibrate() for _ in range(5)))
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    env = environment()
    t_oracle = time.perf_counter()
    oracle = workload.prepare()
    oracle_s = time.perf_counter() - t_oracle

    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    m = run(workload, args.seed, args.seconds, tracer, first_block, oracle)

    attempted = len(m.latencies)
    failed = sum(m.failures.values())
    tail_pct = tail_percentile(attempted, workload.tail_pct)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (closed loop, 1 client)")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"items attempted {attempted}, failed {failed}: failed_frac "
          f"{failed / attempted:.4f} ({failed} of {attempted})")
    for kind, count in sorted(m.failures.items()):
        print(f"  failures.{kind} {count}")
    for inp, problems in m.mismatches[:5]:
        print(f"  mismatch on {json.dumps(inp, sort_keys=True)}: {'; '.join(problems)}")
    print(f"item_tail_ms is the p{tail_pct} item latency "
          f"({attempted * (100 - tail_pct) / 100:.0f} of {attempted} items beyond it)")
    print(f"calibration loop: median {1000 * statistics.median(m.calibrations):.3f} ms "
          f"(reference {1000 * REFERENCE_S:.3f} ms); wall clock: items_per_s "
          f"{attempted / sum(m.slots):.6g}, item_p50_ms "
          f"{1000 * statistics.median(m.latencies):.6g}")

    if args.trace:
        metrics = layer_metrics(tracer, m, tail_pct, (import_s, inputs_s, oracle_s))
        units = {n: u for n, u, _ in PER_LAYER}
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": workload.name, "seed": args.seed, "env": env,
                            "fields": ["name", "start", "end", "parent", "item"]})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        scales = m.scales()
        lat = sorted(x * k for x, k in zip(m.latencies, scales))
        metrics = {
            "items_per_s": attempted / sum(x * k for x, k in zip(m.slots, scales)),
            "item_p50_ms": 1000.0 * percentile(lat, 50),
            "item_tail_ms": 1000.0 * percentile(lat, tail_pct),
            "cpu_ms_per_item": 1000.0 * sum(x * k for x, k in zip(m.cpu, scales)) / attempted,
            "setup_s": statistics.median(
                time_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    for name, value in metrics.items():
        if value is None:
            print(f"{name} absent")
        else:
            print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": m.failures["OracleMismatch"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()
                    if metrics[n] is not None},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, m: Measured, tail_pct: int, setup):
    """Per-layer figures of a traced run, in wall seconds; None marks an
    absent metric."""
    summary = tracer.summary()
    item_busy = summary.get("item", (0, 0.0, 0.0))[1]
    out = {}
    for span in SPANS:
        calls, busy, self_s = summary.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = calls
        out[f"{span}.busy_s"] = busy
        out[f"{span}.self_s"] = self_s
        out[f"{span}.share"] = busy / item_busy if item_busy else 0.0
    c = tracer.counts
    out["algebraic.degree_sum"] = c["algebraic.degree_sum"]
    if m.cache is None:
        out["algebraic.roots_cache.hit_ratio"] = None
        out["algebraic.roots_cache.misses"] = None
    else:
        hits, misses = m.cache
        out["algebraic.roots_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["algebraic.roots_cache.misses"] = misses
    out["elliptic.x_bits_sum"] = c["elliptic.x_bits_sum"]
    out["semiabelian.search_size"] = c["semiabelian.search_size"]
    out["semiabelian.membership_tests"] = c["semiabelian.membership_tests"]
    out["semiabelian.in_ball_ratio"] = (
        c["semiabelian.in_ball"] / c["semiabelian.catalog_points"]
        if c["semiabelian.catalog_points"] else 0.0)
    out["semiabelian.hit_ratio"] = (
        c["semiabelian.hits"] / c["semiabelian.membership_tests"]
        if c["semiabelian.membership_tests"] else 0.0)
    out["semiabelian.boundary_skipped"] = c["semiabelian.boundary_skipped"]
    out["setup.import_s"], out["setup.inputs_s"], out["setup.oracle_s"] = setup
    out["failed_frac"] = sum(m.failures.values()) / len(m.latencies)
    out["item_tail_pct"] = tail_pct
    out["tracing.overhead_frac"] = tracer.bookkeeping_s / (sum(m.slots) - tracer.bookkeeping_s)
    named = FAILURE_KINDS[:-1]
    for kind in named:
        out[f"failures.{kind}"] = m.failures.get(kind, 0)
    out["failures.other"] = sum(n for k, n in m.failures.items() if k not in named)
    return out


if __name__ == "__main__":
    sys.exit(main())
