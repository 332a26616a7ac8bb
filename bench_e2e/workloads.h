/**
 * @file
 * The four workloads of the end-to-end benchmark, each a whole paper
 * experiment run closed loop by one process: cells run back to
 * back, each cell (for `fleet`, each FleetRuntime::run pass) one
 * operation. See README.md for why each workload exists and which
 * layer metrics should move which end-to-end metric.
 */

#ifndef SIDEWINDER_BENCH_E2E_WORKLOADS_H
#define SIDEWINDER_BENCH_E2E_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** The seed the paper binaries use for the audio and robot corpora. */
inline constexpr std::uint64_t defaultSeed = 20160402;

/** Input sizes; the defaults are the paper-scale experiments. */
struct Scale
{
    /**
     * Length of each of the three audio traces, seconds: a third of the
     * paper's half hour, so a run repeats every cell at least twice
     * within its time (a full-scale pass takes about 27 s here).
     */
    double audioSeconds = 600.0;
    /** Length of each robot run (corpus, fault and fleet traces). */
    double robotSeconds = 600.0;
    /** Simulated devices of the fleet. */
    std::size_t fleetDevices = 10000;
};

/** One benchmark run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    /** Host seconds the timed passes run for. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: the traced per-layer run. */
    bool trace = false;
    Scale scale;
    /** Pinned outputs by cell label; empty means nothing is pinned. */
    std::map<std::string, std::string> expected;
    /** Where the traced run writes its spans; empty for nowhere. */
    std::string spansPath;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run measured and checked. */
struct Outcome
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** (cell label, pinned outputs) of the first pass, in cell order. */
    std::vector<std::pair<std::string, std::string>> pinned;
    /** Human-readable findings: the host record and check failures. */
    std::vector<std::string> notes;

    /** The metric named @p name; throws when absent. */
    double metric(const std::string &name) const;
};

/** Run one workload; throws std::invalid_argument on an unknown name. */
Outcome runWorkload(const RunConfig &config);

} // namespace e2e

#endif // SIDEWINDER_BENCH_E2E_WORKLOADS_H
