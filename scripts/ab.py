#!/usr/bin/env python3
"""A/B the end-to-end benchmark between two revisions.

    scripts/ab.py --base REV --workload W[,W2...] [--change REV]
                  [--pairs N] [--seconds S] [--seed0 N0]

Exports the committed files of each revision (the change defaults to
HEAD) with `git archive` into its own directory under one temporary
directory, builds each tree, then runs each tree's bench_e2e/run.py in
turn on the same seeds: pair i runs seed N0 + i on both sides, and the
side that goes first alternates from pair to pair, so a drift in host
load hits both sides alike. Several comma-separated workloads share
one build of each tree and are reported one after another.

For every end-to-end metric BENCHMARK.json declares it prints each
side's median and quartiles, how many pairs the change won (strictly
better in the metric's direction), the median of the per-pair
change/base ratios, and whether the claim rule holds: the change
better on at least 9 of 10 pairs, and the two medians further apart
than the base's interquartile range. It also says whether recall was
identical seed for seed and whether every run was correct with no
failed cell.

Nothing is written inside the repository; the temporary directory
(under $TMPDIR) is removed on exit.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, dest):
    """Write @rev's committed tree into @dest with git archive."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run(tree, workload, seed, seconds):
    """One bench_e2e run in @tree; returns its parsed result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "bench_e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("ab: run failed in %s (seed %d)" % (tree, seed))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    workloads = args.workload.split(",")
    with tempfile.TemporaryDirectory(prefix="sw-ab-") as tmp:
        trees = {"base": os.path.join(tmp, "base"),
                 "change": os.path.join(tmp, "change")}
        export(args.base, trees["base"])
        export(args.change, trees["change"])
        # A one-second run builds each tree before any timed pair.
        for side in ("base", "change"):
            run(trees[side], workloads[0], args.seed0, 1)
        for workload in workloads:
            report(workload, pairs(trees, workload, args), metrics, args)


def pairs(trees, workload, args):
    """Run the alternating pairs; returns each side's results."""
    results = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(
                run(trees[side], workload, seed, args.seconds))
        print("# %s pair %d seed %d (%s first): samples_per_s %s" % (
            workload, i + 1, seed, order[0], " / ".join(
                "%.6g" % results[s][-1]["metrics"]["samples_per_s"]
                ["value"] for s in ("base", "change"))), flush=True)
    return results


def report(workload, results, metrics, args):
    """Print the per-metric medians, wins, ratio and claim rule."""
    need = math.ceil(0.9 * args.pairs)
    print("== %s: %d pairs, %g s runs, seeds %d..%d (base %s, change %s)"
          % (workload, args.pairs, args.seconds, args.seed0,
             args.seed0 + args.pairs - 1, args.base, args.change))
    print("%-14s %-34s %-34s %-6s %-8s %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]",
        "wins", "ratio", "claim rule"))
    for m in metrics:
        name = m["name"]
        higher = m["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q1, b_q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        gap = (c_med - b_med) if higher else (b_med - c_med)
        met = wins >= need and gap > (b_q3 - b_q1)
        print("%-14s %-34s %-34s %-6s %-8s %s" % (
            name, "%.6g [%.6g, %.6g]" % (b_med, b_q1, b_q3),
            "%.6g [%.6g, %.6g]" % (c_med, c_q1, c_q3),
            "%d/%d" % (wins, args.pairs),
            "%.4f" % statistics.median(ratios) if ratios else "-",
            "met" if met else "not met"))

    recall_same = all(
        b["metrics"]["recall"]["value"] == c["metrics"]["recall"]["value"]
        for b, c in zip(results["base"], results["change"]))
    clean = all(r["correct"] and r["failed"] == 0
                for side in results.values() for r in side)
    print("recall identical seed for seed: %s" %
          ("yes" if recall_same else "NO"))
    print("every run correct, 0 failed: %s" % ("yes" if clean else "NO"),
          flush=True)


if __name__ == "__main__":
    main()
