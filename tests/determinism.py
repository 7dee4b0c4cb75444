#!/usr/bin/env python3
"""Table-driven determinism harness for the bench and example binaries.

Each row of TABLE runs one binary once per axis (e.g. --jobs=1 vs --jobs=8,
or the --fast-forward=0 packet-level reference) and requires every axis to
reproduce the first one byte for byte:

  * stdout, after dropping the lines that match the row's `strip` regex
    (export echo lines that name per-run paths or worker counts);
  * every exported file the row lists (metrics, trace, breakdown, flights),
    except that against a --fast-forward=0 axis the metrics drop the lines
    that exist to differ between the two modes (FAST_PATH_ONLY);
  * the first axis's metrics must name every counter in `counters`;
  * `check`, if given, runs further assertions on the first axis's exports.

Each axis runs in its own directory under --out, so its exports are plain
`<export>.json` files there (CI uploads them as artifacts).

  python3 tests/determinism.py --build-dir build --out determinism-out
  python3 tests/determinism.py --build-dir build --out OUT --row fig2_scenario
  python3 tests/determinism.py --list      # row names (ctest registers one test per row)
"""
import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

SOURCE_DIR = Path(__file__).resolve().parent.parent
PLANE_FAILURE = str(SOURCE_DIR / "examples" / "scenarios" / "plane_failure.scn")
LOAD_SURGE = str(SOURCE_DIR / "examples" / "scenarios" / "load_surge.scn")

JOBS = {"serial": ["--jobs=1"], "parallel": ["--jobs=8"]}


def check_json_loads(out: Path) -> None:
    for name in ("metrics.json", "trace.json"):
        json.loads((out / name).read_text())


def check_breakdown(out: Path) -> None:
    doc = json.loads((out / "breakdown.json").read_text())
    assert "propagation" in doc["components"], doc["components"].keys()
    assert "other" not in doc["components"], "unattributed latency residual"
    json.loads((out / "flights.json").read_text())


@dataclass
class Row:
    name: str
    bench: str
    args: list
    axes: dict = field(default_factory=lambda: dict(JOBS))
    # export flag -> file name; every listed export is diffed across axes
    files: dict = field(default_factory=dict)
    counters: list = field(default_factory=list)  # must appear in metrics.json
    strip: Optional[str] = None  # stdout lines matching this are not compared
    check: Optional[Callable[[Path], None]] = None
    subdir: str = "bench"  # build subdirectory holding the binary


METRICS = {"metrics": "metrics.json"}
METRICS_TRACE = {"metrics": "metrics.json", "trace": "trace.json"}

TABLE = [
    Row("fig5_jobs", "fig5_throughput", ["--seeds=4", "--scale=0.2"],
        axes={"serial": ["--jobs=1"], "parallel": [f"--jobs={os.cpu_count() or 1}"]}),
    Row("fig5_metrics", "fig5_throughput", ["--seeds=4", "--scale=0.2", "--sample-interval=1"],
        files=METRICS_TRACE, check=check_json_loads),
    Row("fig2_scenario", "fig2_rtt_timeseries",
        ["--scale=0.2", "--seeds=2", f"--scenario={PLANE_FAILURE}"],
        axes={**JOBS, "reference": ["--jobs=8", "--fast-forward=0"]},
        files=METRICS_TRACE, counters=["scenario.events_applied"],
        strip=r"^(metrics|trace) "),
    # fig2 forces provenance on for its Figure 2b section: the latency
    # decomposition and flight exports must not depend on jobs or fast-forward.
    Row("provenance", "fig2_rtt_timeseries", ["--scale=0.2", "--seeds=2"],
        axes={**JOBS, "reference": ["--jobs=8", "--fast-forward=0"]},
        files={"breakdown": "breakdown.json", "flight": "flights.json"},
        strip=r"^(breakdown|flights) ", check=check_breakdown),
    Row("quic_transfers", "quic_transfers", ["--scale=0.1", "--seeds=2"],
        axes={**JOBS, "reference": ["--jobs=8", "--fast-forward=0"]},
        files=METRICS, counters=["campaign.sessions_launched"], strip=r"^(metrics|trace) "),
    # Fleet rows also diff the epoch shard count: flags are first-wins, so
    # --shards sits in every axis. The flat grid's many hot cells take the
    # sharded tick; continental aggregation leaves one hot cell, which steps
    # serially for any --shards but folds the same supercell runs.
    Row("fleet", "fleet_scale", ["--fleet=1000", "--duration=10m", "--seeds=2"],
        axes={**JOBS, "sharded": ["--jobs=8", "--shards=4"]},
        files=METRICS, counters=["fleet.reallocations"], strip=r"^(metrics|trace) |job"),
    Row("continental_fleet", "fleet_scale",
        ["--fleet=100000", "--continental=1", "--duration=10m", "--seeds=2"],
        axes={"serial": ["--jobs=1", "--shards=4"], "parallel": ["--jobs=8", "--shards=4"],
              "unsharded": ["--jobs=8", "--shards=1"]},
        files=METRICS_TRACE, counters=["fleet.promotions", "fleet.supercells"],
        strip=r"^(metrics|trace) |job"),
    Row("multivantage", "fig1_rtt_anchors",
        ["--multivantage=1", "--fleet=2000", "--continental=1", "--scale=0.05", "--seeds=2"]),
    # The multi-vantage cell honours --scenario (load_surge runs 3-13 min,
    # inside the 1 h window) and reports the simulator's event counter.
    Row("multivantage_scenario", "fig1_rtt_anchors",
        ["--multivantage=1", "--fleet=200", "--scale=0.05", "--seeds=2",
         f"--scenario={LOAD_SURGE}"],
        files=METRICS, counters=["scenario.events_applied", "sim.events_processed"],
        strip=r"^(metrics|trace) "),
    Row("mobility", "fig7_road_trip", ["--route=highway", "--fleet=20", "--seeds=2"],
        files=METRICS_TRACE, counters=["mobility.reroutes", "mobility.tunnels"],
        strip=r"^(metrics|trace) "),
    Row("app_qoe", "fig8_app_qoe", ["--sessions=1", "--duration=20s", "--seeds=2"],
        files=METRICS_TRACE,
        counters=["qoe.abr.segment", "qoe.vc.degraded_windows", "qoe.game.spikes"],
        strip=r"^(metrics|trace) "),
    # The audit honours --scenario: its injector must reach the audit's cells.
    Row("middlebox_scenario", "sec35_middleboxes", [f"--scenario={PLANE_FAILURE}"],
        files=METRICS, counters=["scenario.events_applied"], strip=r"^(metrics|trace) "),
    # The examples parse through the benches' front end (bench_common.hpp):
    # sweep_cli must honour the provenance exports, fleet_cli --scenario.
    Row("sweep_cli", "sweep_cli", ["--grid=leo", "--loads=1", "--tests=1", "--seeds=2"],
        files={**METRICS_TRACE, "breakdown": "breakdown.json", "flight": "flights.json"},
        strip=r"^(metrics|trace|breakdown|flights) ", check=check_breakdown,
        subdir="examples"),
    Row("fleet_cli", "fleet_cli",
        ["--grid=leo", "--sizes=1,100", "--tests=1", "--duration=2m",
         f"--scenario={LOAD_SURGE}"],
        files=METRICS, counters=["scenario.events_applied"], strip=r"^(metrics|trace) ",
        subdir="examples"),
]


def stdout_lines(path: Path, strip: Optional[str]) -> list:
    lines = path.read_text().splitlines(keepends=True)
    if strip is None:
        return lines
    pattern = re.compile(strip)
    return [line for line in lines if not pattern.search(line)]


# Metrics lines that exist to differ between --fast-forward modes: the event
# count and the fast-path introspection (as tests/fast_forward_metrics.hpp).
FAST_PATH_ONLY = re.compile(r"sim\.events_processed|sim\.ff\.|fast_path_active")


def export_bytes(path: Path, reference: bool) -> bytes:
    """The export's bytes; against a --fast-forward=0 axis, metrics lose the
    FAST_PATH_ONLY lines."""
    data = path.read_bytes()
    if not reference or path.name != "metrics.json":
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not FAST_PATH_ONLY.search(line.decode()))


def first_difference(a: list, b: list) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"line {i + 1}: {x.rstrip()!r} != {y.rstrip()!r}"
    return f"lengths {len(a)} != {len(b)}"


def run_row(row: Row, build_dir: Path, out_dir: Path) -> list:
    """Runs every axis of `row`; returns a list of failure messages."""
    binary = build_dir / row.subdir / row.bench
    failures = []
    for axis, axis_args in row.axes.items():
        axis_dir = out_dir / row.name / axis
        axis_dir.mkdir(parents=True, exist_ok=True)
        exports = [f"--{flag}={name}" for flag, name in row.files.items()]
        for name in row.files.values():
            (axis_dir / name).unlink(missing_ok=True)  # no stale export can pass
        with open(axis_dir / "stdout.txt", "wb") as stdout:
            proc = subprocess.run([str(binary), *row.args, *axis_args, *exports],
                                  cwd=axis_dir, stdout=stdout, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            failures.append(f"{axis}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
        failures += [f"{axis}: {name} not written" for name in row.files.values()
                     if not (axis_dir / name).exists()]
    if failures:
        return failures

    axes = list(row.axes)
    base = out_dir / row.name / axes[0]
    for axis in axes[1:]:
        other = out_dir / row.name / axis
        a = stdout_lines(base / "stdout.txt", row.strip)
        b = stdout_lines(other / "stdout.txt", row.strip)
        if a != b:
            failures.append(f"stdout {axes[0]} vs {axis}: {first_difference(a, b)}")
        reference = "--fast-forward=0" in row.axes[axis]
        for name in row.files.values():
            if export_bytes(base / name, reference) != export_bytes(other / name, reference):
                failures.append(f"{name} {axes[0]} vs {axis} differ")
    if row.counters:
        metrics = (base / "metrics.json").read_text()
        failures += [f"counter {c} missing" for c in row.counters if c not in metrics]
    if row.check is not None:
        try:
            row.check(base)
        except (AssertionError, ValueError, KeyError) as e:
            failures.append(f"check: {e!r}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=SOURCE_DIR / "build")
    parser.add_argument("--out", type=Path, default=Path("determinism-out"))
    parser.add_argument("--row", action="append", help="run only these rows")
    parser.add_argument("--list", action="store_true", help="print the row names")
    args = parser.parse_args()
    if args.list:
        print(";".join(row.name for row in TABLE))
        return 0
    rows = [row for row in TABLE if args.row is None or row.name in args.row]
    unknown = set(args.row or []) - {row.name for row in TABLE}
    if unknown:
        print(f"unknown rows: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for row in rows:
        failures = run_row(row, args.build_dir.resolve(), args.out.resolve())
        print(f"{'FAIL' if failures else 'ok  '} {row.name}")
        for message in failures:
            print(f"     {message}")
        failed += bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
