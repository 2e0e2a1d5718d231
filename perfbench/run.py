#!/usr/bin/env python3
"""The repository benchmark: times measurement cells end to end and layer by layer.

    python3 perfbench/run.py --workload spec-cells|fuzz-cells|mt-servers|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench_cells from source
(perfbench/CMakeLists.txt, into .bench_build/perfbench), then for the chosen
workload:

1. runs the correctness oracle once (cells --mode expect): every cell on the
   reference engine and on the default engine, full records compared; the
   reference records are kept for the timed processes;
2. until S seconds have passed (and at least a few times), starts a fresh
   cells process per repetition. With --trace 0 each one times one
   workloads::RunCells call (cells --mode time); with --trace 1 untraced and
   traced (cells --mode trace) processes alternate, so the tracing overhead
   is measured against untraced runs of the same invocation.

Every repetition is its own process, so no cell inherits the allocator state
of another repetition. Repetition k submits the cells in an order fixed by
(--seed, k); the medians average over those orders. The environment is
passed through minus GLIBC_TUNABLES and MALLOC_* settings, which would change
the allocation costs users pay.

Human-readable lines go to stdout first; the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `attempted` counts
cell results checked against the reference records and `failed` those that
differed, so wrong_frac = failed / attempted.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CELLS = os.path.join(BUILD, "perfbench_cells")

WORKLOADS = ("spec-cells", "fuzz-cells", "mt-servers")
# Cells run at this fixed job count (capped by the host's CPUs).
JOBS = min(4, os.cpu_count() or 1)
MIN_REPS = 5        # untraced repetitions per run, whatever --seconds says
MIN_TRACED = 3      # traced and untraced repetitions each with --trace 1
CELLS_TIMEOUT = 120
RUN_BUDGET = 150    # stop starting repetitions after this many seconds


def metric_units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def clean_env():
    return {k: v for k, v in os.environ.items()
            if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}


def build():
    """Configures (once) and builds the cells program; exits 1 when that fails."""
    if not os.path.isfile(os.path.join(SOURCE, "CMakeLists.txt")):
        sys.exit("perfbench: no perfbench/CMakeLists.txt")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if result.returncode != 0:
            if len(steps) == 2:  # a failed configure leaves nothing to reuse
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def cells(workload, seed, mode, extra=()):
    """Runs one cells process; returns its JSON line as a dict."""
    records = os.path.join(BUILD, "records-%s-%d.txt" % (workload, seed))
    cmd = [CELLS, "--workload", workload, "--seed", str(seed), "--jobs", str(JOBS),
           "--mode", mode, "--records", records, *extra]
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, the cells program's steady_clock
    result = subprocess.run(cmd + ["--t0-ns", str(t0)], stdout=subprocess.PIPE,
                            env=clean_env(), timeout=CELLS_TIMEOUT, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit("perfbench: cells program failed (%d): %s" % (result.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def run_workload(workload, seed, seconds, trace, corrupt):
    """Returns (attempted, failed, metrics) for one workload."""
    start = time.monotonic()
    oracle = cells(workload, seed, "expect", ["--corrupt"] if corrupt else [])
    attempted, failed = oracle["cells"], oracle["wrong"]

    untraced, traced = [], []
    spans = os.path.join(BUILD, "spans-%s-%d.jsonl" % (workload, seed))
    while True:
        elapsed = time.monotonic() - start
        if trace:
            done = len(traced) >= MIN_TRACED and len(untraced) >= MIN_TRACED
        else:
            done = len(untraced) >= MIN_REPS
        if (done and elapsed >= seconds) or elapsed >= RUN_BUDGET:
            break
        if trace and len(traced) < len(untraced):
            # Traced and untraced repetition k share a submission order.
            rep = cells(workload, seed, "trace", ["--rep", str(len(traced)), "--spans", spans])
            traced.append(rep)
            # A cell whose layer self times do not add up to its span.
            failed += rep["self_mismatch_cells"]
        else:
            rep = cells(workload, seed, "time", ["--rep", str(len(untraced))])
            untraced.append(rep)
        attempted += rep["cells"]
        failed += rep["wrong"]

    wall = median(untraced, "wall_s")
    if not trace:
        return attempted, failed, {
            "setup_s": median(untraced, "setup_s"),
            "wall_s": wall,
            "sim_minsn_per_s": untraced[0]["sim_insns"] / wall / 1e6,
            "peak_rss_mb": median(untraced, "peak_rss_mb"),
            "correct_frac": 1 - failed / attempted,
        }
    metrics = {name: median(traced, name) for name in metric_units("per_layer")
               if not name.startswith("trace.")}
    metrics["trace.untraced_wall_ms"] = wall * 1e3
    metrics["trace.overhead_pct"] = (median(traced, "wall_s") / wall - 1) * 100
    print("perfbench: %s spans of the last traced run: %s" % (workload, spans), file=sys.stderr)
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-record", action="store_true",
                        help="self-test: perturb one expected record")
    args = parser.parse_args()

    build()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        a, f, m = run_workload(workload, args.seed, args.seconds, args.trace,
                               args.corrupt_record)
        attempted += a
        failed += f
        print("%s: wrong_frac %.6g (%d of %d cell results differ from the reference)"
              % (workload, f / a, f, a))
        for name, value in m.items():
            print("%s: %s %.6g %s" % (workload, name, value, units[name]))
            key = name if len(names) == 1 else "%s.%s" % (workload, name)
            metrics[key] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
