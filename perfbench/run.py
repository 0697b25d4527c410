#!/usr/bin/env python3
"""Builds and runs the repo benchmark; prints one JSON result line last.

    python3 perfbench/run.py --workload serve_mix|serve_tiny|stream_journal \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library sources and the benchmark binary under .bench_build/ (or
$CARGO_TARGET_DIR); later runs only re-check the build. The binary prints
a table of every metric it measured; this script adds the tools/trace_lint
check of the exported chrome trace (traced runs) and emits the result
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end set (--trace 0) or its
per_layer set (--trace 1). A per-layer metric of a layer the workload does
not drive is reported as 0 and listed as n/a. Exit code: 0 = every check
passed, 1 = a correctness check failed, 2 = build or usage error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_mix", "serve_tiny", "stream_journal")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir, build_dir):
    """Configures once, then (re)builds the benchmark and trace_lint."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", bench_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench", "trace_lint"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    try:
        build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    workdir = os.path.join(out_dir, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_out = os.path.join(workdir, "trace.json")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-out", trace_out]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited with {run.returncode}", 1)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    correct = result["correct"] and run.returncode == 0
    if args.trace:
        lint = subprocess.run(
            [os.path.join(build_dir, "tools", "trace_lint"), trace_out])
        print(f"trace_lint {os.path.basename(trace_out)}: "
              f"{'ok' if lint.returncode == 0 else 'FAILED'}")
        correct = correct and lint.returncode == 0
    shutil.rmtree(workdir, ignore_errors=True)

    measured = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured", 1)
            absent.append(name)
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name}: unit {got['unit']} != {unit} in BENCHMARK.json", 1)
        metrics[name] = {"value": got["value"], "unit": unit}
    if absent:
        print(f"n/a on {args.workload} (reported as 0): {', '.join(absent)}")
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
