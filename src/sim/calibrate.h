/**
 * @file
 * Threshold calibration for the Predefined Activity comparison.
 *
 * Section 5.3 of the paper: "To make the comparison to Predefined
 * Activity as fair as possible, we explored the parameter space to
 * determine the best thresholds for significant acceleration and
 * sound intensity. We chose values that minimize power consumption,
 * while maintaining 100% detection recall." This module reproduces
 * that sweep.
 */

#ifndef SIDEWINDER_SIM_CALIBRATE_H
#define SIDEWINDER_SIM_CALIBRATE_H

#include <vector>

#include "apps/app.h"
#include "sim/simulator.h"
#include "trace/types.h"

namespace sidewinder::sim {

/** Outcome of a Predefined Activity threshold sweep. */
struct CalibrationResult
{
    /** Chosen threshold. */
    double threshold = 0.0;
    /** Mean power across the calibration traces at that threshold. */
    double averagePowerMw = 0.0;
    /**
     * True when the chosen threshold maintains 100% recall on every
     * calibration trace; false when even the most sensitive candidate
     * loses events (the lowest candidate is returned in that case).
     */
    bool achievedFullRecall = false;
    /**
     * The Predefined Activity run at the chosen threshold on each
     * calibration trace, in trace order: simulate(traces[i], app,
     * base) with the strategy and threshold set. Callers that need
     * those cells reuse them instead of simulating them again.
     */
    std::vector<SimResult> results;
};

/**
 * Pick the least-sensitive (highest) candidate threshold that keeps
 * 100% recall for @p app on every trace in @p traces — the paper's
 * over-fit-in-favor-of-Predefined-Activity policy.
 *
 * @param candidates Candidate thresholds, any order.
 * @param base Simulation parameters; the strategy field is ignored.
 */
CalibrationResult
calibratePredefinedThreshold(const std::vector<trace::Trace> &traces,
                             const apps::Application &app,
                             std::vector<double> candidates,
                             SimConfig base = {});

} // namespace sidewinder::sim

#endif // SIDEWINDER_SIM_CALIBRATE_H
