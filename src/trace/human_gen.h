/**
 * @file
 * Synthetic human accelerometer traces.
 *
 * Stands in for the 6 hours of traces the paper collected from three
 * individuals "while they perform routine daily activities: morning
 * commute using public transit, working in a retail store, and working
 * in an office. Between 20% and 37% of each trace is spent walking"
 * (Section 4.1).
 *
 * The key property the paper observes on humans (Section 5.5) is that
 * subjects perform many activities that are *not* events of interest
 * but still look like "significant motion" to a generic predefined-
 * activity detector — so the generic condition wakes the phone often
 * while the Sidewinder step condition does not. The generators below
 * therefore mix in non-walking motion (vehicle vibration, object
 * handling, fidgeting) whose x-axis peaks fall outside the step
 * detector's [2.5, 4.5] m/s^2 band.
 */

#ifndef SIDEWINDER_TRACE_HUMAN_GEN_H
#define SIDEWINDER_TRACE_HUMAN_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/types.h"

namespace sidewinder::trace {

/** The three daily-routine scenarios of Section 4.1. */
enum class HumanScenario { Commute, Retail, Office };

/** Printable name of a scenario. */
std::string humanScenarioName(HumanScenario scenario);

/** Parameters of one human recording. */
struct HumanTraceConfig
{
    HumanScenario scenario = HumanScenario::Office;
    /** Recording length in seconds. */
    double durationSeconds = 1200.0;
    /** Accelerometer sampling rate in Hz. */
    double sampleRateHz = 50.0;
    /**
     * Fraction of the trace spent performing the deliberate
     * double-shake gesture (uWave-style, the timeliness scenario of
     * Section 5.4). 0 disables gestures (the paper's own traces).
     */
    double gestureFraction = 0.0;
    /** Seed for the activity script. */
    std::uint64_t seed = 1;
    /** Trace name recorded in the output. */
    std::string name = "human";
};

/**
 * Generate one human recording. Ground-truth events: "step" per step,
 * "walk" per walking segment, "active" per any non-idle motion
 * segment.
 */
Trace generateHumanTrace(const HumanTraceConfig &config);

/**
 * Generate the paper's three-subject corpus (one scenario each:
 * commute, retail, office) with derived per-subject seeds.
 */
std::vector<Trace> generateHumanCorpus(double duration_seconds,
                                       std::uint64_t seed);

} // namespace sidewinder::trace

#endif // SIDEWINDER_TRACE_HUMAN_GEN_H
