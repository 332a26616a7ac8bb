/**
 * @file
 * Trace-driven simulator (Section 4 of the paper): replays a recorded
 * trace under one of the sensing configurations of Section 4.2 —
 * Always Awake, Duty Cycling, Batching, Predefined Activity,
 * Sidewinder, or the Oracle — and reports power, wake-ups, recall and
 * precision.
 */

#ifndef SIDEWINDER_SIM_SIMULATOR_H
#define SIDEWINDER_SIM_SIMULATOR_H

#include <string>

#include "apps/app.h"
#include "hub/placer.h"
#include "metrics/events.h"
#include "sim/faults.h"
#include "sim/power_model.h"
#include "sim/timeline.h"
#include "trace/types.h"

namespace sidewinder::sim {

/** Which hardware executes the Sidewinder wake-up condition. */
enum class HubBackend {
    /** MSP430 / LM4F120 selected by the capability model (paper). */
    Microcontroller,
    /** The modeled iCE40-class FPGA fabric (Section 7 future work). */
    Fpga,
    /**
     * The whole placement space — MCUs, the FPGA fabric, and the
     * AP-fallback — homed by the negotiated-congestion placer
     * (hub::platformExecutors): the condition lands wherever is
     * cheapest under every capacity budget.
     */
    Heterogeneous,
};

/** The sensing configurations of Section 4.2 of the paper. */
enum class Strategy {
    /** Main CPU awake for the whole trace. */
    AlwaysAwake,
    /** Wake every N seconds, sample for the dwell, sleep again. */
    DutyCycling,
    /** Like Duty Cycling, but the hub buffers data across sleeps. */
    Batching,
    /** Hub runs the manufacturer's significant-motion/sound detector. */
    PredefinedActivity,
    /** Hub runs the application's custom wake-up condition. */
    Sidewinder,
    /** Hypothetical ideal: awake exactly during events of interest. */
    Oracle,
};

/** Short display name, e.g. "DC-10" for Duty Cycling at 10 s. */
std::string strategyName(Strategy strategy,
                         double sleep_interval_seconds = 0.0);

/**
 * Data-collection dwell of Duty Cycling / Batching, and of the
 * fallback sampling while the hub is down, seconds (Section 4.2:
 * "collect sensor data for 4 seconds").
 */
inline constexpr double kAwakeDwellSeconds = 4.0;

/** Parameters of one simulation. */
struct SimConfig
{
    Strategy strategy = Strategy::AlwaysAwake;
    /** Sleep interval for Duty Cycling / Batching, seconds. */
    double sleepIntervalSeconds = 10.0;
    /**
     * How long the device stays awake after the *last* hub trigger of
     * an event-driven wake-up (Predefined Activity / Sidewinder) —
     * long enough to run the second-stage classifier on the buffered
     * data, far shorter than a blind collection window. 0 (the
     * default) uses the application's own recommendation
     * (apps::Application::recommendedEventDwellSeconds).
     */
    double eventDwellSeconds = 0.0;
    /**
     * Raw-history window the hub hands the application on a wake-up,
     * seconds (Section 3.8: the hub passes buffered raw sensor data).
     * 0 (the default) uses the application's own recommendation
     * (apps::Application::recommendedLookbackSeconds).
     */
    double lookbackSeconds = 0.0;
    /** Cross-condition node sharing on the hub. */
    bool shareHubNodes = true;
    /**
     * Threshold of the Predefined Activity detector; 0 selects the
     * built-in default for the application's sensor type.
     */
    double predefinedThreshold = 0.0;
    /** Hub hardware for the Sidewinder strategy. */
    HubBackend hubBackend = HubBackend::Microcontroller;
    /**
     * Fault schedule to inject (sim/faults.h). The default plan
     * injects nothing and leaves every output bit-identical to a run
     * without the fault machinery; any active fault routes the run
     * through the full transport + supervision stack
     * (simulateSupervised), Sidewinder strategy only.
     */
    FaultPlan faults;
};

/** Outputs of one simulation. */
struct SimResult
{
    /** Display name of the configuration, e.g. "Sw" or "DC-10". */
    std::string configName;
    /** State occupancy and energy. */
    TimelineSummary timeline;
    /** Average power, mW (timeline.averagePowerMw). */
    double averagePowerMw = 0.0;
    /** Raw hub OUT firings (before awake-interval merging). */
    std::size_t hubTriggerCount = 0;
    /** Detection quality against ground truth. */
    metrics::MatchResult detection;
    double recall = 1.0;
    double precision = 1.0;
    /** Hub executor used ("" when the strategy needs none). */
    std::string mcuName;
    /** Hub power included in the model, mW. */
    double hubMw = 0.0;
    /**
     * Full placement decision for Sidewinder strategies (executor,
     * marginal power, wire-push target); default (unplaced) for
     * strategies without a hub.
     */
    hub::PlacementDecision placement;
    /**
     * Mean delay from event start to the device being awake and able
     * to process it (the paper's timeliness concern for Batching),
     * seconds.
     */
    double meanDetectionLatencySeconds = 0.0;
    /**
     * Fault-tolerance counters; all zero unless config.faults
     * injected something.
     */
    metrics::FaultMetrics faults;
};

/**
 * Replay @p trace for @p app under @p config.
 *
 * Thread-safety contract: concurrent simulate() calls are safe and
 * deterministic as long as each call's @p trace and @p app are not
 * mutated during the run (sharing the same instances read-only across
 * calls is fine — simulate() only reads them). Every call owns its
 * hub engine, kernels, and timeline; the only process-wide state
 * touched is immutable-after-construction (the mutex-guarded
 * dsp::FftPlan cache, static capability tables) plus relaxed atomic
 * DSP counters. All randomness is baked into the trace at generation
 * time, so a cell's result is a pure function of its inputs — this is
 * what lets sim::runSweep (sim/sweep.h) fan a grid of calls across
 * threads and return bit-identical results to a serial loop.
 *
 * @throws ConfigError when the trace lacks a channel the application
 *     needs; CapabilityError when a Sidewinder condition fits no
 *     available MCU.
 */
SimResult simulate(const trace::Trace &trace,
                   const apps::Application &app, const SimConfig &config);

} // namespace sidewinder::sim

#endif // SIDEWINDER_SIM_SIMULATOR_H
