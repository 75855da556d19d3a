#!/usr/bin/env python3
"""Builds and runs the tuner benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the library and the vsbench binary from source into
.bench_build/ (later runs only re-check it). vsbench runs the workload
with its working files under .bench_work/, which is removed afterwards.
The last line of stdout is the result: one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics;
a per-layer metric whose layer the workload bypasses reads 0. The exit
status is 0 only when every operation and correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"
# Whole-run limit for the vsbench process (set-up, measurement and checks).
RUN_TIMEOUT_SEC = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def tmp_env():
    # Compilers and the library write temporary files under TMPDIR; keep
    # them inside the checkout.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=tmp_env())
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(BUILD_DIR, "vsbench")
    if not os.path.exists(binary):
        fail("build produced no vsbench binary")
    return binary


def load_spec():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    command = [os.path.abspath(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                env=tmp_env(), timeout=RUN_TIMEOUT_SEC)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_SEC} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    lines = result.stdout.strip().splitlines()
    if not lines:
        fail(f"workload printed no result (exit {result.returncode})")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("workload result is not JSON: " + lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"workload did not report {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = got
    out = {"correct": raw["correct"] and result.returncode == 0,
           "attempted": raw["attempted"], "failed": raw["failed"],
           "metrics": metrics}
    if result.returncode != 0 and out["failed"] == 0:
        out["failed"] = 1
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
