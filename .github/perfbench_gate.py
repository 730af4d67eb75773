#!/usr/bin/env python3
"""Runs perfbench the way CI does and gates the runs on BENCH_perfbench.json.

    python3 .github/perfbench_gate.py check    # run, then gate (the CI job)
    python3 .github/perfbench_gate.py record   # run, then rewrite the reference

Both modes run, at the reference seed, one untraced window per workload, a
series of traced cold_catalogue windows and one traced drift_track window,
and write each run's JSON result line to perfbench-ci/. Every run must exit 0
with "correct": true and "failed": 0; every traced cold_catalogue run must
report each opt.*_ns kernel timing above zero and
net.frames_minus_responses == 0.

The traced drift_track window is the one run whose requests take the warm
path. Its replay re-runs perfbench's own copy of the service's warm -> floor
guard -> cold fallback rule and counts a request whose replayed path differs
from the server's as failed, so "failed": 0 checks that the copy still
matches quhe-core's solve_warm_guarded. It does not enter the reference.

`check` also fails when
* a workload's objective_mean differs from the reference (the figure is exact
  for a fixed seed and window),
* for any world, the median of stage1.solve_s.<world> over the five traced
  runs exceeds STAGE1_GATE times the reference median. Each traced run times
  one probe solve of Stage 1 (the interior-point solve of P3 with its exact
  barrier derivatives, under a millisecond per world, so a single slow probe
  on a shared host can double it) per world, the one P3 solve of every cold
  and every warm-served request, or
* for any world, the median of stage3.solve_s.<world> over the five traced
  runs exceeds STAGE3_GATE times the reference median. Each traced run times
  one Stage-3 probe solve per world, so the median needs enough runs to ride
  out a slow probe on a small shared host, or
* for any world, the median of core.cold_solve_s.<world> over the five traced
  runs exceeds COLD_GATE times the reference median. Each traced run reports
  the median of its replayed cold solves of that world (stages 1-3 and the
  alternation around them), so this gate watches the whole cold solve where
  the Stage-1 and Stage-3 gates watch one stage each.

`record` takes more traced runs and rewrites the reference from them: the
untraced windows, and the per-world medians of the three gated metrics. Run
it after a change that moves the served objectives, the Stage-1 or Stage-3
cost or the cost of a cold solve.
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

REFERENCE = "BENCH_perfbench.json"
OUT_DIR = "perfbench-ci"
WORKLOADS = ["cold_catalogue", "hit_storm", "drift_track"]
WORLDS = ["paper_default", "dense_cell", "heterogeneous_devices", "far_edge", "bursty_workload"]
SEED = 7
SECONDS = 5
TRACED_SECONDS = 3
TRACED_RUNS = {"check": 5, "record": 7}
STAGE1_GATE = 2.0
STAGE3_GATE = 2.0
COLD_GATE = 2.0
# (traced metric, reference key, gate factor) of the per-world gates.
PER_WORLD_GATES = [("stage1.solve_s", "stage1_solve_s", STAGE1_GATE),
                   ("stage3.solve_s", "stage3_solve_s", STAGE3_GATE),
                   ("core.cold_solve_s", "cold_solve_s", COLD_GATE)]
COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def perfbench(name, workload, seconds, trace):
    """Runs one window and returns its result line, failing on a bad run."""
    args = ["--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    print("perfbench", " ".join(args), flush=True)
    run = subprocess.run(COMMAND + args, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"{name}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
    with open(os.path.join(OUT_DIR, name + ".json"), "w") as out:
        out.write(lines[-1] + "\n")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{name}: correct={result['correct']} failed={result['failed']}\n{run.stdout}")
    return result


def value(result, metric):
    return result["metrics"][metric]["value"]


def traced_run(index):
    result = perfbench(f"traced-{index}", "cold_catalogue", TRACED_SECONDS, 1)
    kernels = [m for m in result["metrics"] if m.startswith("opt.") and "_ns" in m]
    if not kernels:
        sys.exit(f"traced-{index}: no opt.*_ns kernel timings")
    for metric in kernels:
        if not value(result, metric) > 0:
            sys.exit(f"traced-{index}: {metric} = {value(result, metric)}, must be > 0")
    if value(result, "net.frames_minus_responses") != 0:
        sys.exit(f"traced-{index}: net.frames_minus_responses = "
                 f"{value(result, 'net.frames_minus_responses')}")
    return result


def per_world_medians(traced, metric):
    return {w: statistics.median(value(r, f"{metric}.{w}") for r in traced)
            for w in WORLDS}


def main(mode):
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    windows = {w: perfbench(w, w, SECONDS, 0) for w in WORKLOADS}
    traced = [traced_run(i) for i in range(1, TRACED_RUNS[mode] + 1)]
    perfbench("traced-drift", "drift_track", TRACED_SECONDS, 1)
    medians = {key: per_world_medians(traced, metric) for metric, key, _ in PER_WORLD_GATES}

    if mode == "record":
        reference = {
            "schema": "quhe-perfbench-ci/v1",
            "command": " ".join(COMMAND) + " --workload <w> --seed <seed> "
                                           "--seconds <s> --trace <0|1>",
            "host": f"{os.cpu_count()} vCPU {platform.machine()}",
            "seed": SEED,
            "seconds": SECONDS,
            "traced_seconds": TRACED_SECONDS,
            "traced_runs": len(traced),
            "windows": windows,
            **medians,
        }
        with open(REFERENCE, "w") as out:
            json.dump(reference, out, indent=2)
            out.write("\n")
        print(f"wrote {REFERENCE}")
        return

    with open(REFERENCE) as f:
        reference = json.load(f)
    failures = []
    for w in WORKLOADS:
        got = value(windows[w], "objective_mean")
        want = value(reference["windows"][w], "objective_mean")
        print(f"{w}: objective_mean {got!r} (reference {want!r})")
        if got != want:
            failures.append(f"{w}: objective_mean {got!r} != reference {want!r}")
    for metric, key, gate in PER_WORLD_GATES:
        for w in WORLDS:
            got, want = medians[key][w], reference[key][w]
            print(f"{metric}.{w}: median {got * 1e3:.2f} ms "
                  f"(gate {gate:g}x {want * 1e3:.2f} ms)")
            if got > gate * want:
                failures.append(f"{metric}.{w}: {got:.6f} s > {gate:g}x {want:.6f} s")
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in TRACED_RUNS:
        sys.exit(__doc__)
    main(sys.argv[1])
