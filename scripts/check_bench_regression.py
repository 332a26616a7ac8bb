#!/usr/bin/env python3
"""Gate benchmark results against checked-in budgets.

Reads a google-benchmark JSON file (as written by scripts/run_benches.sh)
and scripts/bench_budgets.json, and fails when:

 - a budgeted benchmark regressed by more than the tolerance (default
   20%) over its recorded baseline real_time, or
 - a tracked speedup ratio (e.g. per-sample dispatch vs block dispatch
   of the same program) fell below its floor, or
 - (with --fleet BENCH_fleet.json) a fleet-scaling row at or above the
   budgeted population broke the plan-cache hit-rate floor or the
   per-device memory ceiling, or the fleet's serial-vs-parallel
   determinism flag is false, or
 - (with --reconfig BENCH_reconfig.json) a one-threshold delta push
   cost more than the budgeted fraction of a full push on a plan deep
   enough to amortize framing, the committed swap's blind window
   exceeded one block of samples, or the fault-free live update
   failed to commit cleanly, or
 - (with --placement BENCH_placement.json) the negotiated-congestion
   placer spent more than the budgeted fraction of the greedy
   ladder's fleet power, rescued fewer conditions than the floor,
   left conditions unplaced, failed to converge, or broke the
   1-vs-4-thread determinism flag.

Absolute budgets are machine-dependent, so they only fire on large
regressions (the tolerance) and can be re-baselined by re-running
scripts/run_benches.sh on the reference machine and passing
--rebaseline. A row that fails one is reported with the sitting that
recorded it (scripts/splice_bench.py keeps a list of sittings in the
file's context: date, load average, delivered parallelism), since a
spliced file holds rows from several host phases. Ratio floors compare
two numbers from the *same* run on the *same* machine, so they are
robust to host speed and encode the claims the docs make (block
dispatch >= 3x on dispatch-bound chains, planned FFT faster than
naive, ...).

Usage: scripts/check_bench_regression.py [BENCH_dsp.json]
  --budgets PATH     budget file (default: scripts/bench_budgets.json)
  --tolerance FRAC   allowed fractional regression (default: 0.20)
  --rebaseline       rewrite the budget baselines from this run
  --fleet PATH       BENCH_fleet.json to check against the "fleet"
                     budgets (skipped, with a note, when omitted)
  --reconfig PATH    BENCH_reconfig.json to check against the
                     "reconfig" budgets (skipped when omitted)
  --placement PATH   BENCH_placement.json to check against the
                     "placement" budgets (skipped when omitted)
"""

import argparse
import json
import re
import sys
from pathlib import Path


def result_key(row):
    """The name a gate uses for @row: aggregates drop "/repeats:N"."""
    if row.get("run_type") == "aggregate":
        return re.sub(r"/repeats:\d+$", "", row["run_name"])
    return row["name"]


def load_results(path):
    """Map benchmark name -> real_time in ns.

    A benchmark run with repetitions is represented by its median
    aggregate, under its name without the "/repeats:N" suffix that
    google-benchmark adds for repetitions set in code, so a gate on it
    sees the median rather than whichever repetition came last.
    """
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    medians = {}
    for b in data.get("benchmarks", []):
        time_ns = float(b["real_time"])
        unit = b.get("time_unit", "ns")
        time_ns *= {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[result_key(b)] = time_ns
            continue
        out[b["name"]] = time_ns
    out.update(medians)
    return out


def load_sittings(path):
    """Map benchmark name (as load_results keys it) -> its sitting.

    A row belongs to the last sitting in context["sittings"] that
    lists it; rows no sitting lists are absent. Also returns the date
    of the file's own context, the recording those rows come from.
    """
    with open(path) as fh:
        data = json.load(fh)
    context = data.get("context", {})
    by_row = {}
    for sitting in context.get("sittings", []):
        for name in sitting.get("rows", []):
            by_row[name] = sitting
    return ({result_key(b): by_row[b["name"]]
             for b in data.get("benchmarks", []) if b["name"] in by_row},
            context.get("date"))


def describe_sitting(sitting, context_date):
    """One line naming the sitting a row was recorded in."""
    if sitting is None:
        return ("recorded before sittings were kept (file context "
                f"{context_date})")
    load = sitting.get("load_avg") or []
    parallelism = sitting.get("delivered_parallelism")
    return (f"recorded in sitting {sitting.get('date')}, load "
            f"{', '.join(f'{x:.2f}' for x in load) or 'unknown'}, "
            "delivered parallelism "
            f"{'unknown' if parallelism is None else f'{parallelism:.2f}'}")


def per_item(results, name):
    """real_time per processed item: Foo/64 divides by 64."""
    t = results[name]
    if "/" in name:
        try:
            return t / float(name.rsplit("/", 1)[1])
        except ValueError:
            pass
    return t


def check_fleet(path, spec, failures):
    """Gate BENCH_fleet.json against the "fleet" budget section."""
    with open(path) as fh:
        fleet = json.load(fh)

    min_pop = int(spec.get("min_population", 0))
    hit_floor = float(spec.get("cache_hit_rate_floor", 0.0))
    mem_ceiling = float(spec.get("memory_per_device_max_bytes", 0))

    if spec.get("require_deterministic") and not fleet.get("deterministic"):
        print("REGRESSED  fleet: serial vs parallel results diverged")
        failures.append("fleet_deterministic")
    else:
        print("       ok  fleet: serial vs parallel bit-identical")

    gated = [r for r in fleet.get("populations", [])
             if int(r.get("devices", 0)) >= min_pop]
    if not gated:
        print(f"fleet: no population >= {min_pop} in {path}",
              file=sys.stderr)
        failures.append("fleet_min_population")
        return

    for row in gated:
        devices = int(row["devices"])
        hit_rate = float(row.get("cache_hit_rate", 0.0))
        status = "ok" if hit_rate >= hit_floor else "REGRESSED"
        print(f"{status:>9}  fleet[{devices}]: cache hit rate "
              f"{hit_rate:.4f} (floor {hit_floor:.2f})")
        if hit_rate < hit_floor:
            failures.append(f"fleet_cache_hit_rate[{devices}]")

        mem = float(row.get("memory_bytes_per_device", 0.0))
        if mem <= 0.0:
            # /proc/self/statm was unreadable on this host; the
            # ceiling cannot be evaluated, which is not a regression.
            print(f"     note  fleet[{devices}]: no memory sample")
            continue
        status = "ok" if mem <= mem_ceiling else "REGRESSED"
        print(f"{status:>9}  fleet[{devices}]: {mem:.0f} B/device "
              f"(ceiling {mem_ceiling:.0f})")
        if mem > mem_ceiling:
            failures.append(f"fleet_memory_per_device[{devices}]")


def check_reconfig(path, spec, failures):
    """Gate BENCH_reconfig.json against the "reconfig" budget section."""
    with open(path) as fh:
        reconfig = json.load(fh)

    max_ratio = float(spec.get("delta_to_full_max_ratio", 1.0))
    min_nodes = int(spec.get("min_plan_nodes", 0))
    max_blind = float(spec.get("blind_window_max_samples", 1.0))

    gated = [r for r in reconfig.get("apps", [])
             if int(r.get("plan_nodes", 0)) >= min_nodes]
    if not gated:
        print(f"reconfig: no app with >= {min_nodes} plan nodes in {path}",
              file=sys.stderr)
        failures.append("reconfig_min_plan_nodes")
    for row in gated:
        app = row["app"]
        ratio = float(row["delta_bytes"]) / float(row["full_bytes"])
        status = "ok" if ratio <= max_ratio else "REGRESSED"
        print(f"{status:>9}  reconfig[{app}]: delta/full {ratio:.4f} "
              f"(ceiling {max_ratio:.2f})")
        if ratio > max_ratio:
            failures.append(f"reconfig_delta_ratio[{app}]")

    live = reconfig.get("live_update", {})
    if spec.get("require_committed"):
        committed = int(live.get("committed", 0))
        rolled_back = int(live.get("rolled_back", 0))
        clean = committed == 1 and rolled_back == 0
        status = "ok" if clean else "REGRESSED"
        print(f"{status:>9}  reconfig: fault-free update committed "
              f"{committed}, rolled back {rolled_back}")
        if not clean:
            failures.append("reconfig_committed")

    blind = float(live.get("blind_window_samples", 0.0))
    status = "ok" if 0.0 < blind <= max_blind else "REGRESSED"
    print(f"{status:>9}  reconfig: blind window {blind:.2f} samples "
          f"(ceiling {max_blind:.0f})")
    if not 0.0 < blind <= max_blind:
        failures.append("reconfig_blind_window")


def check_placement(path, spec, failures):
    """Gate BENCH_placement.json against the "placement" section."""
    with open(path) as fh:
        placement = json.load(fh)

    max_ratio = float(spec.get("energy_ratio_max", 1.0))
    min_rescued = int(spec.get("min_rescued", 0))

    greedy = float(placement.get("fleet_power_mw_greedy", 0.0))
    negotiated = float(placement.get("fleet_power_mw_negotiated", 0.0))
    ratio = negotiated / greedy if greedy > 0.0 else 1.0
    status = "ok" if ratio <= max_ratio else "REGRESSED"
    print(f"{status:>9}  placement: negotiated/greedy fleet power "
          f"{ratio:.4f} (ceiling {max_ratio:.2f})")
    if ratio > max_ratio:
        failures.append("placement_energy_ratio")

    rescued = int(placement.get("rescued_conditions", 0))
    status = "ok" if rescued >= min_rescued else "REGRESSED"
    print(f"{status:>9}  placement: {rescued} rescued condition(s) "
          f"(floor {min_rescued})")
    if rescued < min_rescued:
        failures.append("placement_rescued")

    unplaced = int(placement.get("unplaced_negotiated", 0))
    if spec.get("require_total") and unplaced > 0:
        print(f"REGRESSED  placement: {unplaced} condition(s) left "
              "unplaced despite the AP fallback")
        failures.append("placement_unplaced")
    elif spec.get("require_total"):
        print("       ok  placement: every condition found a home")

    unconverged = int(placement.get("unconverged", 0))
    if spec.get("require_converged") and unconverged > 0:
        print(f"REGRESSED  placement: {unconverged} device(s) hit the "
              "negotiation iteration cap")
        failures.append("placement_unconverged")
    elif spec.get("require_converged"):
        print("       ok  placement: every negotiation converged")

    if spec.get("require_deterministic") \
            and not placement.get("deterministic"):
        print("REGRESSED  placement: 1-thread vs 4-thread placements "
              "diverged")
        failures.append("placement_deterministic")
    elif spec.get("require_deterministic"):
        print("       ok  placement: 1 vs 4 threads bit-identical")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("results", nargs="?", default="BENCH_dsp.json")
    ap.add_argument("--budgets",
                    default=str(Path(__file__).parent / "bench_budgets.json"))
    ap.add_argument("--tolerance", type=float, default=0.20)
    ap.add_argument("--rebaseline", action="store_true")
    ap.add_argument("--fleet", default=None)
    ap.add_argument("--reconfig", default=None)
    ap.add_argument("--placement", default=None)
    args = ap.parse_args()

    results = load_results(args.results)
    sittings, context_date = load_sittings(args.results)
    with open(args.budgets) as fh:
        budgets = json.load(fh)

    failures = []
    missing = []

    for name, entry in sorted(budgets.get("baselines_ns", {}).items()):
        if name not in results:
            missing.append(name)
            continue
        baseline = float(entry)
        current = results[name]
        if args.rebaseline:
            budgets["baselines_ns"][name] = round(current, 2)
            continue
        limit = baseline * (1.0 + args.tolerance)
        status = "ok" if current <= limit else "REGRESSED"
        print(f"{status:>9}  {name}: {current:.1f} ns "
              f"(baseline {baseline:.1f}, limit {limit:.1f})")
        if current > limit:
            print("           "
                  + describe_sitting(sittings.get(name), context_date))
            failures.append(name)

    for name, spec in sorted(budgets.get("ratio_floors", {}).items()):
        num, den = spec["numerator"], spec["denominator"]
        if num not in results or den not in results:
            missing.append(f"{name} ({num} / {den})")
            continue
        ratio = per_item(results, num) / per_item(results, den)
        floor = float(spec["min_ratio"])
        status = "ok" if ratio >= floor else "REGRESSED"
        print(f"{status:>9}  {name}: {ratio:.2f}x (floor {floor:.2f}x)")
        if ratio < floor:
            failures.append(name)

    if "fleet" in budgets:
        if args.fleet:
            check_fleet(args.fleet, budgets["fleet"], failures)
        else:
            print("fleet budgets skipped (no --fleet BENCH_fleet.json)")

    if "reconfig" in budgets:
        if args.reconfig:
            check_reconfig(args.reconfig, budgets["reconfig"], failures)
        else:
            print("reconfig budgets skipped "
                  "(no --reconfig BENCH_reconfig.json)")

    if "placement" in budgets:
        if args.placement:
            check_placement(args.placement, budgets["placement"],
                            failures)
        else:
            print("placement budgets skipped "
                  "(no --placement BENCH_placement.json)")

    if args.rebaseline:
        with open(args.budgets, "w") as fh:
            json.dump(budgets, fh, indent=2)
            fh.write("\n")
        print(f"rebaselined {args.budgets} from {args.results}")

    if missing:
        print("missing from results (run with the default filter?): "
              + ", ".join(missing), file=sys.stderr)
        failures.extend(missing)
    if failures:
        print(f"check_bench_regression: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("check_bench_regression: all budgets met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
