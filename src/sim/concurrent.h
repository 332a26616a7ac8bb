/**
 * @file
 * Concurrent multi-application simulation.
 *
 * Section 7 of the paper: "We would also like to explore supporting
 * multiple concurrent applications while still maintaining
 * predictable performance. When receiving multiple wake-up
 * conditions, the sensor manager can attempt to improve performance
 * by combining the pipelines that use common algorithms."
 *
 * This simulator installs every application's wake-up condition on
 * ONE hub engine (with or without node sharing), wakes the main CPU
 * whenever any condition fires, runs each application's second-stage
 * classifier on the shared awake windows, and reports per-application
 * detection quality plus the single combined power figure — the
 * number a real phone would draw with all the apps active at once.
 */

#ifndef SIDEWINDER_SIM_CONCURRENT_H
#define SIDEWINDER_SIM_CONCURRENT_H

#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "metrics/events.h"
#include "sim/simulator.h"
#include "trace/types.h"

namespace sidewinder::sim {

/** Per-application outcome of a concurrent run. */
struct ConcurrentAppResult
{
    std::string appName;
    metrics::MatchResult detection;
    double recall = 1.0;
    double precision = 1.0;
    /** Hub triggers raised by this application's condition. */
    std::size_t hubTriggerCount = 0;
    /**
     * Mean delay from event start to the device being awake with the
     * event's data available, seconds (SimResult's measure).
     */
    double meanDetectionLatencySeconds = 0.0;
};

/** Outcome of a concurrent multi-application simulation. */
struct ConcurrentResult
{
    /** Combined device power with all conditions installed, mW. */
    double averagePowerMw = 0.0;
    TimelineSummary timeline;
    /** Hub microcontroller the combined load required. */
    std::string mcuName;
    double hubMw = 0.0;
    /** Algorithm instances on the hub (after sharing, if enabled). */
    std::size_t hubNodeCount = 0;
    /** Sustained hub compute demand, abstract cycle units/s. */
    double hubCyclesPerSecond = 0.0;
    /** Per-application detection quality. */
    std::vector<ConcurrentAppResult> apps;
};

/**
 * Run all @p apps concurrently over @p trace under the Sidewinder
 * strategy: simulateDevice() with one domain. All applications must
 * use the same sensor channels (they share one hub).
 *
 * @throws ConfigError on no apps or mixed channel sets;
 *     CapabilityError when the combined load fits no MCU.
 */
ConcurrentResult
simulateConcurrent(const trace::Trace &trace,
                   const std::vector<std::unique_ptr<apps::Application>> &apps,
                   const SimConfig &config = {});

/**
 * One sensor domain of a multi-hub device: a synchronous channel
 * group (its own hub) with the applications that consume it and the
 * recording that drives it.
 */
struct DeviceDomain
{
    /** Recording for this domain's channels. */
    const trace::Trace *trace = nullptr;
    /** Applications on this domain (same channel set each). */
    const std::vector<std::unique_ptr<apps::Application>> *apps =
        nullptr;
};

/** Per-domain summary of a multi-hub device simulation. */
struct DeviceDomainResult
{
    /** Hub part serving this domain. */
    std::string mcuName;
    double hubMw = 0.0;
    std::size_t hubNodeCount = 0;
    /** Sustained hub compute demand, abstract cycle units/s. */
    double hubCyclesPerSecond = 0.0;
    /** Per-application detection quality. */
    std::vector<ConcurrentAppResult> apps;
};

/** Outcome of a whole-device simulation. */
struct DeviceResult
{
    /** Phone + all hubs, averaged over the run, mW. */
    double averagePowerMw = 0.0;
    TimelineSummary timeline;
    /** Sum of the per-domain hub powers, mW. */
    double totalHubMw = 0.0;
    std::vector<DeviceDomainResult> domains;
};

/**
 * Simulate a heterogeneous device in the Section 2.1.1 style: one
 * main CPU and one hub per sensor domain ("a DSP for the microphone
 * and an FPGA for each of the other sensors"). Each domain runs its
 * applications' wake-up conditions on its own hub; any hub's trigger
 * wakes the shared main CPU. Domain traces must have equal durations.
 *
 * @throws ConfigError on empty/mismatched domains or a domain whose
 *     apps do not share one channel set; CapabilityError when a
 *     domain's load fits no MCU.
 */
DeviceResult simulateDevice(const std::vector<DeviceDomain> &domains,
                            const SimConfig &config = {});

} // namespace sidewinder::sim

#endif // SIDEWINDER_SIM_CONCURRENT_H
