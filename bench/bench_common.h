/**
 * @file
 * Shared plumbing for the table/figure regeneration binaries: trace
 * durations (scaled down when SW_FAST=1 is set in the environment),
 * simulation helpers, and row formatting.
 */

#ifndef SIDEWINDER_BENCH_COMMON_H
#define SIDEWINDER_BENCH_COMMON_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"
#include "trace/types.h"

namespace sidewinder::bench {

/** True when the environment requests a quick, scaled-down run. */
inline bool
fastMode()
{
    const char *flag = std::getenv("SW_FAST");
    return flag != nullptr && flag[0] != '\0' && flag[0] != '0';
}

/** Scale a paper-scale duration down in fast mode. */
inline double
scaledSeconds(double paper_seconds)
{
    return fastMode() ? paper_seconds / 6.0 : paper_seconds;
}

/** Audio trace length: the paper's half-hour recordings. */
inline double
audioSeconds()
{
    return scaledSeconds(1800.0);
}

/** Robot run length (the paper's runs took ~1 hour; we use 600 s —
 * power numbers are time-normalized so only event statistics shrink). */
inline double
robotSeconds()
{
    return scaledSeconds(600.0);
}

/** Human trace length per subject (paper: ~2 h each). */
inline double
humanSeconds()
{
    return scaledSeconds(2400.0);
}

/** Run one strategy over one trace. */
inline sim::SimResult
runStrategy(const trace::Trace &trace, const apps::Application &app,
            sim::Strategy strategy, double sleep_interval = 10.0,
            double predefined_threshold = 0.0)
{
    sim::SimConfig config;
    config.strategy = strategy;
    config.sleepIntervalSeconds = sleep_interval;
    config.predefinedThreshold = predefined_threshold;
    return sim::simulate(trace, app, config);
}

/** Mean of @p values; 0 for an empty vector. */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** Physical cores visible to this process (0 when unknown). */
inline std::size_t
hardwareCores()
{
    return std::thread::hardware_concurrency();
}

/** Wall time, in seconds, of @p threads concurrent copies of a fixed
    integer spin. */
inline double
spinSeconds(std::size_t threads)
{
    static std::atomic<std::uint64_t> sink{0};
    const auto begin = std::chrono::steady_clock::now();
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < threads; ++t)
            workers.emplace_back([] {
                std::uint64_t x = 1;
                for (int i = 0; i < 20'000'000; ++i)
                    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                sink.fetch_add(x, std::memory_order_relaxed);
            });
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin)
        .count();
}

/**
 * The parallelism the host delivers across its cores, which a shared
 * host can hold well below the core count: cores x (one-thread spin
 * time) / (cores-thread spin time), each the best of three — the
 * measure bench_e2e records as host.parallelism. Takes ~0.3 s.
 */
inline double
deliveredParallelism()
{
    const std::size_t cores = std::max<std::size_t>(1, hardwareCores());
    double one = spinSeconds(1);
    double many = spinSeconds(cores);
    for (int i = 0; i < 2; ++i) {
        one = std::min(one, spinSeconds(1));
        many = std::min(many, spinSeconds(cores));
    }
    return static_cast<double>(cores) * one / many;
}

/**
 * Append the worker-thread context fields every benchmark JSON must
 * carry: the effective pool width, the SW_THREADS override (null when
 * unset), the machine's core count, and the parallelism the host
 * delivered across those cores while the bench ran. A speedup is only
 * meaningful relative to "cores" and "delivered_parallelism" — on a
 * single-core container every parallel speedup is bounded by 1.0
 * regardless of the thread count, and on a busy shared one by what
 * the other tenants leave.
 *
 * Emits `"threads": N, "sw_threads": N|null, "cores": N,
 * "delivered_parallelism": X` (no braces, no trailing comma) so
 * callers can splice it into their own object.
 */
inline void
writeThreadContext(std::FILE *out, const char *indent)
{
    const auto override = support::ThreadPool::envThreadOverride();
    std::fprintf(out, "%s\"threads\": %zu,\n", indent,
                 support::ThreadPool::defaultThreadCount());
    if (override)
        std::fprintf(out, "%s\"sw_threads\": %zu,\n", indent,
                     *override);
    else
        std::fprintf(out, "%s\"sw_threads\": null,\n", indent);
    std::fprintf(out, "%s\"cores\": %zu,\n", indent, hardwareCores());
    std::fprintf(out, "%s\"delivered_parallelism\": %.2f", indent,
                 deliveredParallelism());
}

/** Print a separator line sized for the standard row layout. */
inline void
rule(int width = 72)
{
    for (int i = 0; i < width; ++i)
        std::fputc('-', stdout);
    std::fputc('\n', stdout);
}

} // namespace sidewinder::bench

#endif // SIDEWINDER_BENCH_COMMON_H
