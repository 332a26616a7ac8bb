#!/usr/bin/env python3
"""End-to-end benchmark of the Sidewinder paper experiments.

    python3 bench_e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench_e2e/run.py --workload NAME --repeat N [...]   # steadiness
    python3 bench_e2e/run.py --selftest

Builds the benchmark program from source with CMake into
.bench_build/e2e at the repository root, runs it, checks that its result names exactly the
metrics BENCHMARK.json declares, and prints that result as the last
line of standard output. --repeat runs the workload N times on seeds
N0, N0+1, ... and prints each metric's median, quartiles and range.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
DEFAULT_SEED = 20160402
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Run the benchmark program; return its notes and parsed result."""
    cmd = [os.path.join(BUILD, "e2e"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--spans", os.path.join(BUILD, "spans-%s.jsonl" % workload)]
    expected = os.path.join(HERE, "expected", workload + ".txt")
    if os.path.exists(expected):
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_e2e: e2e failed with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared_metrics(trace):
        sys.exit("bench_e2e: e2e metrics do not match BENCHMARK.json")
    return lines[:-1], result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def steadiness(args):
    """Run --repeat times on consecutive seeds and summarise spread."""
    runs = []
    for i in range(args.repeat):
        _, result = run_once(args.workload, args.seed + i, args.seconds,
                             args.trace)
        runs.append(result)
        print("# run %d seed %d: %s" % (i + 1, args.seed + i,
              json.dumps({k: round(v["value"], 6)
                          for k, v in result["metrics"].items()})),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = quartiles(values)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "min": min(values), "max": max(values),
                         "iqr_over_median": (q3 - q1) / med if med else None}
        print("%-34s median %-14.6g q1 %-14.6g q3 %-14.6g min %-14.6g "
              "max %-14.6g iqr/median %s" % (
                  name, med, q1, q3, min(values), max(values),
                  "%.4f" % summary[name]["iqr_over_median"]
                  if med else "-"))
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "correct": all(r["correct"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        code = subprocess.run([os.path.join(BUILD, "e2e_selftest")],
                              timeout=SELFTEST_TIMEOUT_S).returncode
        sys.exit(code)
    if args.repeat > 0:
        steadiness(args)
        return
    notes, result = run_once(args.workload, args.seed, args.seconds,
                             args.trace)
    for line in notes:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
