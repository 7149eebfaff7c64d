#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--units <n>]

Run from the root of a checkout. The first call configures and builds the
program's libraries plus the harness (Release) into .bench_build/perfbench;
later calls only re-check the build. Build output goes to stderr. The last
stdout line is the harness's JSON result. Exits non-zero without a result
when the program sources are missing or the build fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
WORKLOADS = ("reference_bode", "screening_lot", "campaign_resume")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"program sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                         + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "--parallel", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--units", type=int, default=0,
                        help="units the exact metrics cover (default: the workload's own)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    harness = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR]
    if args.units > 0:
        cmd += ["--units", str(args.units)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"harness printed no result (exit {proc.returncode})")

    for line in lines[:-1]:
        print(line)
    # Tracing overhead: this traced run against the untraced run of the same
    # workload and seed, when one was made in this checkout.
    last = os.path.join(OUT_DIR, f"last-{args.workload}-{args.seed}.json")
    metrics = result["metrics"]
    if args.trace == 0:
        with open(last, "w") as f:
            json.dump(metrics, f)
    elif os.path.isfile(last):
        with open(last) as f:
            untraced = json.load(f)
        for traced_name, name in (("trace.throughput_points_per_s", "throughput_points_per_s"),
                                  ("trace.op_latency_p50_ms", "op_latency_p50_ms")):
            a, b = metrics[traced_name]["value"], untraced[name]["value"]
            print(f"  tracing overhead on {name}: traced {a:.6g} vs untraced {b:.6g} "
                  f"({100.0 * (a - b) / b:+.2f}%)")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
