#!/usr/bin/env python3
"""perfbench — the repository's end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload ping_timeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

It builds perfbench/driver.cpp against ../src (Release, into .bench_build/),
runs one untimed cross-check batch through runner::run_merged at a different
worker count, then for --seconds seconds repeats a set-up process and a timed
batch of the workload, each a fresh process. It prints every metric by name
with its unit, a run manifest, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (run_level over
untraced processes); --trace 1 also runs traced ones and reports the
per-layer metrics from them. The exit code is 0 only when every output check
passed: every cell completed its work and conserved packets per link, and
every batch produced the same digest.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
MIN_BATCHES = 3
# Pool width of the timed batches; README.md says why 2 on a 4-core host.
WORKERS = 2
# Set-up processes before each batch: at least one, and more until this many
# seconds are spent, so that setup_s samples the whole run.
SETUP_SECONDS = 0.3
# Interleaved groups of processes a run level is taken over (run_level).
GROUPS = 3

PROFILE_HEAD = re.compile(
    r"events=(\d+) callback mean=(\d+)ns p50<=(\d+)ns p99<=(\d+)ns max<=(\d+)ns")
PROFILE_SECTION = re.compile(r"section (\S+)\s+calls=(\d+)\s+total=([0-9.]+)ms")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_seeds():
    """BENCHMARK.json names each gated workload's seeds in its `why`; they
    must be the ones in workloads.json, which run.py uses."""
    for w in BENCH["workloads"]:
        seeds = WORKLOADS[w["name"]]
        want = f"Seeds: default {seeds['default_seed']}, held-out {seeds['heldout_seed']}."
        if want not in w["why"]:
            log(f"perfbench: BENCHMARK.json's why for {w['name']} does not say '{want}'")
            sys.exit(2)


# ---------------------------------------------------------------- build


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no library sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(bdir)  # configured from another checkout
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not cache.is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(bdir), "--target", "slp_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(bdir / "build.log", "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                log((bdir / "build.log").read_text()[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                sys.exit(2)
    return bdir / "slp_perfbench"


# -------------------------------------------------------------- manifest


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(workload, seed, shards, batch):
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "machine": platform.machine(), "kernel": platform.release()},
        "build_type": batch.get("build_type"),
        "compiler": batch.get("compiler"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "workers": WORKERS,
        "shards": shards,
        "argv": sys.argv,
    }


# ------------------------------------------------------------- processes


def run_batch(binary, workload, seed, workers, shards, traced=False, via="pool", spans=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--workers={workers}",
           f"--shards={shards}", f"--trace={int(traced)}", f"--via={via}"]
    if spans is not None:
        cmd.append(f"--spans={spans}")
    # One driver process: its JSON document plus the wall time around it.
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"errors": [f"driver exited {proc.returncode} without a result"], "cells": []}
    if proc.returncode != 0 and not doc.get("errors"):
        doc["errors"] = [f"driver exited {proc.returncode}"]
    for line in proc.stderr.splitlines():
        if line.startswith(("check failed", "error")):
            log(f"  {workload} seed={seed} via={via}: {line}")
    doc["wall_s"] = wall
    return doc


def expected_cells(docs):
    return max((len(d.get("cells", [])) for d in docs), default=1) or 1


def run_level(samples):
    """A run's value of a metric sampled once per process, in run order. On a
    shared host the CPU speed switches between levels up to 1.6x apart every
    few seconds, so a median over processes jumps between the levels as their
    shares shift around one half. The samples are dealt round-robin into
    GROUPS groups instead, each group's mean spans the whole run, and the
    median over groups is reported: steady as a mean, and one stray process
    moves only its own group."""
    groups = [samples[i::GROUPS] for i in range(GROUPS)]
    return statistics.median(statistics.fmean(g) for g in groups if g)


def end_to_end_samples(batches, setups):
    """One sample per untraced batch, in run order; setup_s one per set-up
    process, the median over its cells."""
    return {
        "wall_s": [b["wall_s"] for b in batches],
        "sim_s_per_wall_s": [sum(c["sim_s"] for c in b["cells"]) / b["run_s"] for b in batches],
        "setup_s": [statistics.median(c["setup_s"] for c in s["cells"]) for s in setups],
        "peak_rss_mb": [b["peak_rss_mb"] for b in batches],
    }


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(b, setup):
    """Per-layer numbers of one traced batch and its traced set-up process
    (profile sections are inclusive)."""
    c, cells, work = b["counters"], b["cells"], b["work"]

    def total(pattern):
        rx = re.compile(pattern)
        return sum(v for k, v in c.items() if rx.fullmatch(k))

    def busy(layer=None):
        return sum(x["wall_s"] for x in cells if layer is None or x["layer"] == layer)

    heads, sections = [], {}
    for line in b["profile"]:
        if m := PROFILE_HEAD.search(line["text"]):
            heads.append([int(g) for g in m.groups()])
        elif m := PROFILE_SECTION.search(line["text"]):
            sections[m.group(1)] = sections.get(m.group(1), 0.0) + float(m.group(3))
    events = c.get("sim.events_processed", 0)
    pkts = total(r"link\..*\.delivered_packets")
    slots = c.get("leo.slots_computed", 0)
    epochs = work.get("fleet.epochs", 0)
    cell_busy = busy()
    return {
        "runner.cell_busy_s": cell_busy,
        "runner.worker_idle_s": b["workers"] * b["run_s"] - cell_busy,
        "runner.merge_s": b["merge_s"],
        "runner.cell_wall_p50_s": statistics.median(x["wall_s"] for x in cells),
        "runner.cell_wall_max_s": max(x["wall_s"] for x in cells),
        "measure.testbed_build_s": sum(x["setup_s"] for x in setup["cells"]
                                       if x["layer"] != "fleet"),
        "sim.events": events,
        "sim.events_per_s": ratio(events, cell_busy),
        "sim.ns_per_event": ratio(cell_busy * 1e9, events),
        "sim.pkts_delivered": pkts,
        "sim.ns_per_pkt": ratio(cell_busy * 1e9, pkts),
        "sim.drop_ratio": ratio(total(r"link\..*\.dropped_\w+"),
                                total(r"link\..*\.enqueued_packets")),
        "sim.ff_materializations": c.get("sim.ff.materializations", 0),
        "sim.callback_p50_ns": statistics.median(h[2] for h in heads) if heads else 0,
        "sim.callback_p99_ns": max((h[3] for h in heads), default=0),
        "sim.callback_max_ns": max((h[4] for h in heads), default=0),
        "sim.link_ms": sections.get("links", 0.0),
        "phy.ge_bad_periods": total(r"phy\.ge\..*\.bad_periods"),
        "phy.dropped": total(r"phy\.ge\..*\.dropped") + c.get("phy.outage.dropped", 0),
        "leo.slots_computed": slots,
        "leo.handovers": c.get("leo.handovers", 0),
        "leo.ephemeris_ms": sections.get("ephemeris", 0.0),
        "leo.ns_per_slot": ratio(sections.get("ephemeris", 0.0) * 1e6, slots),
        "transport.cc_ms": sections.get("cc", 0.0),
        "tcp.fast_recovery": c.get("tcp.cc.fast_recovery", 0),
        "tcp.rto": c.get("tcp.cc.rto", 0),
        "quic.pto": c.get("quic.cc.pto", 0),
        "quic.congestion": c.get("quic.cc.congestion", 0),
        "quic.h3_abandoned": work.get("quic.h3_abandoned", 0),
        "geo.pep_flows_split": c.get("geo.pep.flows_split", 0),
        "web.visits_per_s": ratio(work.get("web.visits", 0), busy("web")),
        "web.visits_timed_out": work.get("web.visits_timed_out", 0),
        "qoe.sessions_per_s": ratio(work.get("qoe.sessions", 0), busy("qoe")),
        "qoe.game_ticks_lost": work.get("qoe.game_ticks_lost", 0),
        "fleet.placement_s": sum(x["placement_s"] for x in setup["cells"]),
        "fleet.epochs": epochs,
        "fleet.ns_per_epoch": ratio(busy("fleet") * 1e9, epochs),
        "fleet.reallocations": work.get("fleet.reallocations", 0),
        "fleet.realloc_per_epoch": ratio(work.get("fleet.reallocations", 0), epochs),
        "fleet.attaches": work.get("fleet.attaches", 0),
        "obs.export_s": b["export_s"],
    }


def per_layer(traced, traced_setups, untraced):
    rows = [layer_metrics(b, s) for b, s in zip(traced, traced_setups)]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["obs.trace_overhead_ratio"] = ratio(statistics.median(b["wall_s"] for b in traced),
                                            statistics.median(b["wall_s"] for b in untraced))
    return out


# ------------------------------------------------------------------ runs


def measure(binary, workload, seed, seconds, trace):
    """One benchmark run of one workload; returns its report."""
    shards = 1
    alt_workers = WORKERS + 1 if WORKERS < (os.cpu_count() or 1) else WORKERS - 1
    reports = build_dir() / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = reports / f"{stem}.spans.jsonl"

    # Cross-check (untimed): the sweep API at another worker and shard count.
    check = run_batch(binary, workload, seed, alt_workers, 2, via="run_merged")
    batches, setups, traced, traced_setups = [], [], [], []
    t0 = time.perf_counter()
    while True:
        t_setup = time.perf_counter()
        while True:
            setups.append(run_batch(binary, workload, seed, WORKERS, shards, via="setup"))
            if time.perf_counter() - t_setup >= SETUP_SECONDS:
                break
        batches.append(run_batch(binary, workload, seed, WORKERS, shards))
        if trace:
            spans.unlink(missing_ok=True)  # the file keeps the last traced pair's spans
            traced_setups.append(run_batch(binary, workload, seed, WORKERS, shards, traced=True,
                                           via="setup", spans=spans))
            traced.append(run_batch(binary, workload, seed, WORKERS, shards, traced=True,
                                    spans=spans))
        elapsed = time.perf_counter() - t0
        done = len(batches)
        if done >= MIN_BATCHES and elapsed * (done + 1) / done > seconds:
            break

    runs = [check] + batches + traced  # the processes that export a digest
    everything = runs + setups + traced_setups
    cells = expected_cells(everything)
    attempted = cells * len(everything)
    failed = sum(cells if not d.get("cells") else len(d.get("errors", [])) for d in everything)
    digests = {b.get("digest") for b in runs}
    if failed == 0 and len(digests) != 1:
        reference = check.get("digest")
        failed = sum(cells for b in runs if b.get("digest") != reference)
        log(f"  {workload} seed={seed}: digests differ across batches: {sorted(map(str, digests))}")
    correct = failed == 0

    metrics, units, samples = {}, {}, {}
    if correct:
        if trace:
            metrics, units = per_layer(traced, traced_setups, batches), PER_LAYER_UNITS
        else:
            samples = end_to_end_samples(batches, setups)
            metrics = {name: run_level(vals) for name, vals in samples.items()}
            units = END_TO_END_UNITS
    report = {
        "manifest": manifest(workload, seed, shards, batches[0]),
        "digest": batches[0].get("digest"),
        "batches": len(batches),
        "traced_batches": len(traced),
        "cells_per_batch": cells,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": ratio(failed, attempted),
        # Keyed and ordered by BENCHMARK.json; a metric it names and the
        # computation lacks is a KeyError.
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "samples": samples,
    }
    (reports / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    report["report_path"] = os.path.relpath(reports / f"{stem}.json", ROOT)
    return report


def print_report(workload, report, trace):
    m = report["manifest"]
    print(f"perfbench {workload}: seed={m['seed']} workers={m['workers']} "
          f"shards={m['shards']} cells/batch={report['cells_per_batch']} "
          f"batches={report['batches']}" + (f"+{report['traced_batches']} traced" if trace else "")
          + " (each with a set-up process; +1 run_merged cross-check)")
    if trace:
        print("  per-layer, traced processes (medians; profile sections are inclusive: "
              "links contains cc):")
    else:
        print(f"  end-to-end, untraced processes (median of {GROUPS} interleaved groups' means):")
    for name, v in report["metrics"].items():
        print(f"    {name:26s} {v['value']:>16.6g} {v['unit']}")
    print(f"    {'fail_ratio':26s} {report['fail_ratio']:>16.6g} ratio "
          f"({report['failed']} failed of {report['attempted']} cells)")
    print(f"  digest {report['digest']}   report {report['report_path']}")
    print("  manifest " + json.dumps(m))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's default seed in workloads.json)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_seeds()
    binary = build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        seed = WORKLOADS[name]["default_seed"] if args.seed is None else args.seed
        for trace in modes:
            report = measure(binary, name, seed, args.seconds, trace)
            print_report(name, report, trace)
            total["correct"] &= report["failed"] == 0
            total["attempted"] += report["attempted"]
            total["failed"] += report["failed"]
            prefix = f"{name}/" if len(names) > 1 else ""
            for key, v in report["metrics"].items():
                total["metrics"][prefix + key] = v
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
