#!/bin/sh
# Reproduce every result in EXPERIMENTS.md from scratch.
#
# Usage: scripts/reproduce.sh [fast] [tsan] [asan]
#   fast  — run the experiment binaries on ~6x shorter traces.
#   tsan  — additionally build with -DSIDEWINDER_SANITIZE=thread and
#           run the tests labelled tsan in tests/CMakeLists.txt (the
#           concurrency-bearing ones; the file says why each carries
#           its labels) under ThreadSanitizer before the normal run.
#           SW_TSAN=1 enables the same.
#   asan  — additionally build with
#           -DSIDEWINDER_SANITIZE=address,undefined and run the tests
#           labelled asan under strict ASan/UBSan (a UBSan report
#           aborts its test; libstdc++ assertions are on). SW_ASAN=1
#           enables the same.
set -e
cd "$(dirname "$0")/.."

for arg in "$@"; do
    [ "$arg" = "fast" ] && export SW_FAST=1
    [ "$arg" = "tsan" ] && SW_TSAN=1
    [ "$arg" = "asan" ] && SW_ASAN=1
done

if [ "${SW_TSAN:-0}" = "1" ]; then
    # TSan is incompatible with ASan, so it gets its own tree. Only
    # the labelled tests run here; the full (uninstrumented) suite
    # still runs below.
    cmake -B build-tsan -G Ninja -DSIDEWINDER_SANITIZE=thread
    cmake --build build-tsan --target tsan_tests
    echo "== ThreadSanitizer: tests labelled tsan =="
    ctest --test-dir build-tsan -L tsan --output-on-failure
fi

if [ "${SW_ASAN:-0}" = "1" ]; then
    cmake -B build-asan -G Ninja \
        -DSIDEWINDER_SANITIZE=address,undefined
    cmake --build build-asan --target asan_tests
    echo "== ASan/UBSan: tests labelled asan =="
    ctest --test-dir build-asan -L asan --output-on-failure
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# The shipped wake conditions must pass the static analyzer under the
# strictest setting (also registered as the swlint_all_apps ctest).
echo "== swlint: built-in wake conditions =="
build/tools/swlint --all-apps --Werror

{
    for b in build/bench/*; do
        if [ -f "$b" ] && [ -x "$b" ]; then
            echo
            echo "============================================================"
            echo "== $(basename "$b")"
            echo "============================================================"
            case "$(basename "$b")" in
            bench_dsp_micro)
                # Also capture JSON so the budget gate below can
                # compare this run against scripts/bench_budgets.json.
                "$b" --benchmark_out=bench_check.json \
                    --benchmark_out_format=json
                ;;
            *)
                "$b"
                ;;
            esac
        fi
    done
} 2>&1 | tee bench_output.txt

# Fail the reproduction if a tracked benchmark regressed >20% against
# its recorded baseline, a documented speedup ratio fell below its
# floor, the fleet run broke its cache-hit-rate / memory-per-device
# budgets or determinism flag (docs/performance.md), the
# reconfiguration run broke its delta-wire-cost / blind-window
# budgets (docs/fault-model.md, "Live reconfiguration"), or the
# placement run let the negotiated placer spend more than the greedy
# ladder, rescue nothing, or diverge across thread counts
# (docs/placement.md).
echo "== benchmark regression gate =="
python3 scripts/check_bench_regression.py bench_check.json \
    --fleet BENCH_fleet.json --reconfig BENCH_reconfig.json \
    --placement BENCH_placement.json
