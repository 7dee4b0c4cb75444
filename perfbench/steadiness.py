#!/usr/bin/env python3
"""Steadiness self-check for perfbench (see perfbench/README.md).

Runs two sets of untraced runs of every workload on the same code, one run
per seed, and reports for each end-to-end metric of BENCHMARK.json:

  spread  quartile distance over median within each set, as
          statistics.quantiles(values, n=4) gives the quartiles;
  drift   how much worse the second set's median is than the first's.

Both are shares, compared with the metric's bound. The check fails (exit 1)
when a run fails its output check, or when any spread or drift exceeds its
bound. Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --seconds 20
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second, better):
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to check (repeatable; default: all)")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set, one seed each")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()
    if args.seeds < 4:
        ap.error("--seeds must be at least 4 for quartiles")

    ok = True
    rows = []
    for workload in args.workload or names:
        sets = []
        for k in range(2):
            values = {}
            for i in range(args.seeds):
                seed = args.first_seed + k * args.seeds + i
                got = run_once(workload, seed, args.seconds)
                if got is None:
                    print(f"{workload} seed={seed}: run failed", flush=True)
                    ok = False
                    continue
                for name, v in got.items():
                    values.setdefault(name, []).append(v)
                print(f"{workload} set={k + 1} seed={seed} " +
                      " ".join(f"{name}={v:.6g}" for name, v in got.items()), flush=True)
            sets.append(values)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = sets[0].get(name, []), sets[1].get(name, [])
            if min(len(a), len(b)) < 4:
                ok = False
                continue
            s1, s2, d = spread(a), spread(b), drift(a, b, metric["better"])
            bad = max(s1, s2) > bound or d > bound
            ok &= not bad
            rows.append((workload, name, statistics.median(a), s1, s2, d, bound,
                         "FAIL" if bad else ("ok" if max(s1, s2) < bound / 3
                                             else "ok (over bound/3)")))
            print(f"{workload:18s} {name:18s} median={rows[-1][2]:<12.6g} spread={s1:.3f}/{s2:.3f} "
                  f"drift={d:+.3f} bound={bound} {rows[-1][7]}", flush=True)
    print(json.dumps({"steady": ok, "rows": [
        {"workload": r[0], "metric": r[1], "median": r[2], "spread": [r[3], r[4]],
         "drift": r[5], "bound": r[6]} for r in rows]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
