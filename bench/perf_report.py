#!/usr/bin/env python3
"""Perf-regression harness: micro + macro timings -> BENCH_micro.json.

Runs the google-benchmark micro suite (``micro_sim``, each benchmark
MICRO_REPETITIONS times, its row the median) plus two macro
measurements (wall time of the fig5 throughput campaign at smoke scale, and
of a million-terminal continental fleet hour) and writes a stable-schema
JSON report::

    { "<bench>": { "ns_per_op": <float>, "items_per_s": <float> }, ... }

Modes
-----
* ``--out PATH``        write a fresh report (the committed baseline is the
                        repo-root ``BENCH_micro.json``).
* ``--check BASELINE``  additionally compare the fresh numbers against a
                        committed baseline: fail (exit 1) if any benchmark got
                        slower than ``tolerance`` x baseline ns_per_op, if a
                        baseline benchmark disappeared, or if a produced
                        benchmark has no baseline row (an ungated benchmark
                        gates nothing: add its row). The default tolerance
                        is deliberately loose (2x) because CI runners are noisy
                        shared machines; the harness is meant to catch
                        order-of-magnitude regressions (an accidental
                        allocation re-introduced per event), not 10% drift.

Only the Python standard library is used.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (report key, bench binary, argv). The fleet macro is the acceptance
# workout for the hierarchical grid: 1M terminals, one simulated hour,
# idle cells aggregated analytically, epochs sharded across 8 workers.
MACROS = [
    ("MACRO_Fig5ThroughputWall", "fig5_throughput",
     ["--scale=0.1", "--seeds=2", "--jobs=2"]),
    ("MACRO_FleetMillionWall", "fleet_scale",
     ["--fleet=1000000", "--continental=1", "--shards=8", "--duration=3600s"]),
]
# Runs of each micro benchmark; its row is their median, so one noisy run
# neither trips the gate nor loosens a refreshed baseline.
MICRO_REPETITIONS = 5
# --profile re-runs only the fig5 macro (the packet-level campaign with
# subsystem wall sections; the fleet macro is analytic and has none).
PROFILE_MACRO = MACROS[0]


def run_micro(micro_sim: Path) -> dict:
    """Runs the google-benchmark suite MICRO_REPETITIONS times per benchmark,
    returns {name: {ns_per_op, items_per_s}}, each the median over the runs."""
    proc = subprocess.run(
        # Bare-double min_time: the "0.05s" spelling needs google-benchmark
        # >= 1.8, plain 0.05 works on every version either side.
        [str(micro_sim), "--benchmark_format=json", "--benchmark_min_time=0.05",
         f"--benchmark_repetitions={MICRO_REPETITIONS}"],
        check=True,
        capture_output=True,
        text=True,
    )
    doc = json.loads(proc.stdout)
    runs = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue  # the suite's own mean/median/stddev rows
        # google-benchmark reports real_time in time_unit; normalise to ns.
        unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[bench.get("time_unit", "ns")]
        ns_per_op = bench["real_time"] * unit
        items = bench.get("items_per_second", 1e9 / ns_per_op if ns_per_op else 0.0)
        runs.setdefault(bench["name"], []).append((ns_per_op, items))
    if not runs:
        raise SystemExit("perf_report: micro_sim produced no benchmark rows")
    return {
        name: {"ns_per_op": round(statistics.median(ns for ns, _ in samples), 3),
               "items_per_s": round(statistics.median(it for _, it in samples), 3)}
        for name, samples in runs.items()
    }


def run_profile(bench_dir: Path) -> None:
    """Re-runs the fig5 macro campaign with subsystem wall-profiling and echoes
    the testbed's ``wall-profile`` stderr lines (obs::WallProfile report)."""
    _, binary, argv = PROFILE_MACRO
    proc = subprocess.run([str(bench_dir / binary), *argv, "--profile=1"],
                          check=True, capture_output=True, text=True)
    lines = [l for l in proc.stderr.splitlines() if l.startswith("wall-profile")]
    if lines:
        print("\nsubsystem wall profile (fig5 macro campaign):")
        for line in lines:
            print(f"  {line}")
    else:
        print("\nperf_report: --profile produced no wall-profile lines", file=sys.stderr)


def run_macros(bench_dir: Path) -> dict:
    """Times each end-to-end macro campaign once, wall-clock."""
    out = {}
    for name, binary, argv in MACROS:
        start = time.monotonic_ns()
        subprocess.run([str(bench_dir / binary), *argv], check=True, capture_output=True)
        elapsed_ns = time.monotonic_ns() - start
        out[name] = {
            "ns_per_op": float(elapsed_ns),
            "items_per_s": round(1e9 / elapsed_ns, 6),
        }
    return out


def _ns_per_op(entry):
    """ns_per_op of a report entry; None for non-benchmark entries so a
    schema extension (metadata keys, profile blobs) never crashes --check."""
    if isinstance(entry, dict) and isinstance(entry.get("ns_per_op"), (int, float)):
        return float(entry["ns_per_op"])
    return None


def check(fresh: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    print(f"{'benchmark':<40} {'baseline ns':>14} {'current ns':>14} {'ratio':>7}")
    for name in sorted(baseline):
        base_ns = _ns_per_op(baseline[name])
        if base_ns is None:
            continue
        if name not in fresh or _ns_per_op(fresh[name]) is None:
            failures.append(f"{name}: present in baseline but not produced")
            print(f"{name:<40} {base_ns:>14.1f} {'MISSING':>14}")
            continue
        cur_ns = _ns_per_op(fresh[name])
        ratio = cur_ns / base_ns if base_ns else float("inf")
        flag = ""
        if ratio > tolerance:
            failures.append(f"{name}: {cur_ns:.1f} ns vs baseline {base_ns:.1f} ns "
                            f"({ratio:.2f}x > {tolerance:.2f}x tolerance)")
            flag = "  <-- REGRESSION"
        print(f"{name:<40} {base_ns:>14.1f} {cur_ns:>14.1f} {ratio:>6.2f}x{flag}")
    for name in sorted(set(fresh) - set(baseline)):
        cur_ns = _ns_per_op(fresh[name])
        if cur_ns is not None:
            failures.append(f"{name}: produced but has no baseline row")
            print(f"{name:<40} {'NO BASELINE':>14} {cur_ns:>14.1f}")
    if failures:
        print("\nperf_report: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf_report: OK (all benchmarks within tolerance)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-dir", type=Path, required=True,
                        help="directory holding the built micro_sim and fig5_throughput")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the fresh report JSON here")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline BENCH_micro.json to compare against")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="max allowed current/baseline ns_per_op ratio (default 2.0)")
    parser.add_argument("--profile", action="store_true",
                        help="also run the macro campaign with --profile=1 and "
                             "print the subsystem wall-profile report")
    args = parser.parse_args()

    fresh = run_micro(args.bench_dir / "micro_sim")
    fresh.update(run_macros(args.bench_dir))
    if args.profile:
        run_profile(args.bench_dir)

    if args.out is not None:
        args.out.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"perf_report: wrote {args.out} ({len(fresh)} benchmarks)")

    if args.check is not None:
        return check(fresh, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
