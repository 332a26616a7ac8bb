#!/usr/bin/env bash
# Build and run the tracked benchmarks, recording results as JSON at
# the repo root:
#
#  - BENCH_dsp.json   — google-benchmark output of bench_dsp_micro.
#    Contains both the naive reference path (BM_FftRealNaive — the
#    pre-planned-FFT baseline) and the planned paths (BM_FftReal,
#    BM_FftPlanReal, ...), so the planned-vs-naive speedup and the
#    allocs/iter counters are tracked release over release. Also
#    records the static analyzer's wall-clock over every shipped
#    wake condition (BM_Analyze*): admission control runs on each
#    push, so il::analyze() must stay far under 10 ms per program.
#    The execution-plan benchmarks (BM_Lower, and
#    BM_PlanDispatchSirenPhrase vs BM_LegacyDispatchSirenPhrase —
#    docs/execution-plan.md) track the install-time compile cost and
#    the plan-vs-legacy per-sample dispatch speedup.
#  - BENCH_sweep.json — bench_sweep_scaling: serial vs parallel
#    wall-clock of a fig6-style simulation grid at 1/2/4/hw threads,
#    the speedup per thread count, and a determinism flag asserting
#    the parallel results matched the serial ones field-for-field.
#  - BENCH_faults.json — bench_fault_sweep: recall + power of the
#    supervised Sidewinder stack vs link corruption / frame-drop /
#    hub-reset rate (docs/fault-model.md), plus a flag asserting the
#    fault-free cell stays bit-identical run over run.
#  - BENCH_fleet.json — bench_fleet_scaling: devices/sec, samples/sec,
#    memory per device, and the fleet plan cache's hit rate at 1k /
#    10k / 100k simulated devices (docs/performance.md, "Fleet
#    execution"), plus a serial-vs-parallel determinism flag.
#  - BENCH_reconfig.json — bench_reconfig: delta vs full-push wire
#    bytes of a one-threshold retune per app, the blind window of a
#    committed A/B swap on the fig5 robot workload at 115200 baud,
#    the corrupted-update commit/rollback counts, and the
#    stalled-transfer rollback latency (docs/fault-model.md, "Live
#    reconfiguration").
#  - BENCH_placement.json — bench_placement: fleet-wide hub power of
#    the negotiated-congestion placer vs the frozen greedy ladder
#    over a mixed 10k-device population, the count of rescued
#    conditions, rip-up/convergence counters, and a 1-vs-4-thread
#    determinism flag (docs/placement.md).
#  - BENCH_reproduce.json — wall time of the table/figure drivers the
#    paper's evaluation runs (bench_table2_audio_power,
#    bench_fig5_robot_power, bench_whole_device,
#    bench_goertzel_ablation), one run each, plus the bench_fault_sweep
#    run above (the supervised transport path). Table 2 runs twice: on
#    the default pool and at SW_THREADS=1, so its serial and pooled
#    wall times are both on record. Each row carries the pool width it
#    ran at, and the record names the host's CPU. Recorded, not gated:
#    the numbers depend on the host.
#
# Every JSON record carries its worker-thread context — the effective
# pool width, the SW_THREADS override (null/unset when absent), and
# the machine's core count — so numbers from thread-starved or
# single-core containers are identifiable after the fact: a parallel
# "speedup" is only meaningful relative to the recorded "cores".
#
# Usage: scripts/run_benches.sh [benchmark filter regex]
#   BUILD_DIR=...   build directory (default: build)
#   OUT=...         DSP output JSON path (default: BENCH_dsp.json)
#   OUT_SWEEP=...   sweep output JSON path (default: BENCH_sweep.json)
#   OUT_FAULTS=...  fault sweep JSON path (default: BENCH_faults.json)
#   OUT_FLEET=...   fleet scaling JSON path (default: BENCH_fleet.json)
#   OUT_RECONFIG=... reconfiguration JSON path (default: BENCH_reconfig.json)
#   OUT_PLACEMENT=... placement JSON path (default: BENCH_placement.json)
#   SW_FAST=1       scale the sweep and driver traces ~6x down (ratio
#                   unchanged) and drop the fleet's 100k population
#   SW_THREADS=N    override the worker-thread count (recorded in
#                   every JSON context block)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_dsp.json}"
OUT_SWEEP="${OUT_SWEEP:-BENCH_sweep.json}"
OUT_FAULTS="${OUT_FAULTS:-BENCH_faults.json}"
OUT_FLEET="${OUT_FLEET:-BENCH_fleet.json}"
OUT_RECONFIG="${OUT_RECONFIG:-BENCH_reconfig.json}"
OUT_PLACEMENT="${OUT_PLACEMENT:-BENCH_placement.json}"
FILTER="${1:-.}"
DRIVERS=(bench_table2_audio_power bench_fig5_robot_power
    bench_whole_device bench_goertzel_ablation)

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_dsp_micro \
    bench_sweep_scaling bench_fault_sweep bench_fleet_scaling \
    bench_reconfig bench_placement "${DRIVERS[@]}" \
    >/dev/null

# Refuse to record numbers from an unoptimized tree: a Debug build is
# 5-20x slower and would poison the checked-in baselines that
# check_bench_regression.py compares against.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
case "$build_type" in
*[Dd]ebug*)
    echo "run_benches.sh: refusing to benchmark a $build_type build" \
        "($BUILD_DIR); reconfigure with -DCMAKE_BUILD_TYPE=Release" >&2
    exit 1
    ;;
esac

"$BUILD_DIR"/bench/bench_dsp_micro \
    --benchmark_filter="$FILTER" \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json

# Belt and braces: the bench binary records whether *it* was compiled
# with optimization (the cache can be empty when the default applies),
# so reject output that self-reports as a debug compile.
if ! grep -q '"sidewinder_build_type": *"release"' "$OUT"; then
    echo "run_benches.sh: $OUT reports a debug compile of" \
        "bench_dsp_micro; refusing to keep it" >&2
    rm -f "$OUT"
    exit 1
fi

echo "wrote $OUT"

"$BUILD_DIR"/bench/bench_sweep_scaling "$OUT_SWEEP"

fault_sweep_start=$(date +%s%N)
"$BUILD_DIR"/bench/bench_fault_sweep "$OUT_FAULTS"
fault_sweep_ns=$(($(date +%s%N) - fault_sweep_start))

"$BUILD_DIR"/bench/bench_fleet_scaling "$OUT_FLEET"

"$BUILD_DIR"/bench/bench_reconfig "$OUT_RECONFIG"

"$BUILD_DIR"/bench/bench_placement "$OUT_PLACEMENT"

# Driver wall times, stamped with the thread context and SW_FAST flag
# bench_sweep_scaling recorded above in this same environment, as
# (name, width, ns) triples; width "pool" is that context's width.
timings=(bench_fault_sweep pool "$fault_sweep_ns")
for driver in "${DRIVERS[@]}"; do
    start=$(date +%s%N)
    "$BUILD_DIR/bench/$driver" >/dev/null
    timings+=("$driver" pool "$(($(date +%s%N) - start))")
done
start=$(date +%s%N)
SW_THREADS=1 "$BUILD_DIR/bench/bench_table2_audio_power" >/dev/null
timings+=(bench_table2_audio_power 1 "$(($(date +%s%N) - start))")
python3 - "$OUT_SWEEP" BENCH_reproduce.json "${timings[@]}" <<'EOF_PY'
import json
import platform
import sys

sweep, out, timings = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(sweep) as f:
    context = json.load(f)
host = platform.processor() or platform.machine()
try:
    with open("/proc/cpuinfo") as f:
        host = next(line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name"))
except (OSError, StopIteration):
    pass
record = {"host": host}
record.update({key: context[key]
               for key in ("fast_mode", "threads", "sw_threads", "cores",
                           "delivered_parallelism")})
record["drivers"] = [
    {"name": name,
     "threads": context["threads"] if width == "pool" else int(width),
     "wall_s": round(int(ns) / 1e9, 3)}
    for name, width, ns in zip(timings[::3], timings[1::3], timings[2::3])]
with open(out, "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
EOF_PY
echo "wrote BENCH_reproduce.json"
