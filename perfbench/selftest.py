#!/usr/bin/env python3
"""Benchmark self-test: every workload the harness has, at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that
  - every metric named in BENCHMARK.json is printed, finite, with its unit;
  - the correctness gates held;
  - every exact metric is bit-equal across two runs with the same seed;
  - the seed-dependent exact metrics change under another seed, which shows
    the seed reaches the inputs.
It also checks that the benchmark fails, without a result, when the program
sources are absent. Exit 0 when everything holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--units", "2"]

# Exact metrics: deterministic for a fixed seed.
EXACT = ["op_success_ratio", "sim.events_per_point", "sim.delivered_ratio", "pll.sim_s_per_point",
         "bist.point.attempts_per_point", "bist.point.relocks", "bist.accuracy_max_abs_db",
         "bist.accuracy_max_abs_deg", "bist.band_pass_ratio", "bist.points_compared",
         "core.testplan.verdict_agreement_ratio", "core.campaign.resimulated_points"]
# Exact metrics that depend on the drawn devices. The rest are ratios at
# their ceiling or counts fixed by the run size, equal under any seed.
SEED_DEPENDENT = {
    "reference_bode": ["sim.events_per_point", "sim.delivered_ratio", "pll.sim_s_per_point",
                       "bist.accuracy_max_abs_db", "bist.accuracy_max_abs_deg"],
    "screening_lot": ["sim.events_per_point", "sim.delivered_ratio"],
    "campaign_resume": ["sim.events_per_point", "sim.delivered_ratio", "pll.sim_s_per_point",
                        "bist.accuracy_max_abs_db", "bist.accuracy_max_abs_deg"],
}


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + TINY
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.rstrip("\n").split("\n")[-1]


def result(workload, seed, trace):
    proc, last = run(workload, seed, trace)
    res = json.loads(last)
    if proc.returncode != 0 or not res["correct"]:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                             + proc.stdout)
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []

    for workload in WORKLOADS:
        runs = {}
        for seed, trace in ((11, 0), (11, 1), (11, 1), (12, 1), (11, 0)):
            runs.setdefault((seed, trace), []).append(result(workload, seed, trace))
        for (seed, trace), results in runs.items():
            for res in results:
                metrics = res["metrics"]
                if set(metrics) != {m["name"] for m in declared[trace]}:
                    problems.append(f"{workload} trace {trace}: metric set differs from "
                                    "BENCHMARK.json")
                for m in declared[trace]:
                    got = metrics.get(m["name"])
                    if got is None or not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
                        problems.append(f"{workload}: {m['name']} missing, not finite or "
                                        f"wrong unit: {got}")
                if res["attempted"] < 1:
                    problems.append(f"{workload}: no operation attempted")
        same = runs[(11, 1)] + runs[(11, 0)]
        for name in EXACT:
            values = [r["metrics"][name]["value"] for r in same if name in r["metrics"]]
            if len(set(values)) > 1:
                problems.append(f"{workload}: exact metric {name} differs under one seed: {values}")
        other = runs[(12, 1)][0]["metrics"]
        for name in SEED_DEPENDENT[workload]:
            if other[name]["value"] == runs[(11, 1)][0]["metrics"][name]["value"]:
                problems.append(f"{workload}: {name} did not change under another seed")
        print(f"selftest: {workload} checked", flush=True)

    # Without the program sources the benchmark must fail and print no result.
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, last = run("reference_bode", 1, 0, cwd=bare)
        if proc.returncode == 0 or last.startswith("{"):
            problems.append("benchmark succeeded without the program sources")

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
