/**
 * @file
 * Microcontroller capability and power model for the sensor hub.
 *
 * The prototype evaluated two hub microcontrollers (Section 4 of the
 * paper): a TI MSP430 "consuming only 3.6 mW while awake" but which
 * "was unable to run the FFT-based low-pass filter in real-time", and
 * a TI LM4F120 (Cortex-M4) which "can run all our filters in real
 * time" but consumes "an average of 49.4 mW while awake".
 *
 * Compute demand is expressed in the abstract cycle units of
 * il::AlgorithmInfo::cyclesPerUnit. Budgets are calibrated so that
 * accelerometer pipelines (50 Hz) fit on the MSP430 while audio-rate
 * FFT pipelines (the siren detector) require the LM4F120 — matching
 * the MCU assignment the paper uses for Table 2.
 */

#ifndef SIDEWINDER_HUB_MCU_H
#define SIDEWINDER_HUB_MCU_H

#include <cstddef>
#include <string>
#include <vector>

#include "il/analyze.h"
#include "il/plan.h"

namespace sidewinder::hub {

/** Static description of a hub microcontroller. */
struct McuModel
{
    /** Part name, e.g. "MSP430". */
    std::string name;
    /** Average power while awake and processing, milliwatts. */
    double activePowerMw = 0.0;
    /** Sustained compute budget in abstract cycle units per second. */
    double cyclesPerSecond = 0.0;
    /**
     * On-chip SRAM available to wake-up condition state, bytes;
     * 0 means no RAM budget is modeled (admission checks compute
     * only). Checked against il::ProgramCost::ramBytes.
     */
    std::size_t ramBytes = 0;
    /**
     * Sustained wake-up interrupts per second the application
     * processor tolerates from this hub; 0 means no wake budget is
     * modeled. Checked against il::ProgramCost::wakeRateBoundHz —
     * callers with a range-analysis proof (il::analyzeRanges) may
     * substitute the tighter proven bound before admission, which is
     * how provably quiet conditions fit budgets their syntactic
     * bound would blow.
     */
    double wakeBudgetHz = 0.0;
};

/** The TI MSP430 of the prototype: 3.6 mW, small compute budget. */
McuModel msp430();

/** The TI LM4F120 (Cortex-M4): 49.4 mW, large compute budget. */
McuModel lm4f120();

/** All hub MCUs known to the platform, cheapest first. */
const std::vector<McuModel> &availableMcus();

/** True when @p mcu sustains @p cycles_per_second in real time. */
bool canRunInRealTime(const McuModel &mcu, double cycles_per_second);

/**
 * True when @p mcu satisfies both budgets of @p cost: sustained
 * compute and (when the model declares one) RAM.
 */
bool fitsBudget(const McuModel &mcu, const il::ProgramCost &cost);

/**
 * Pick the lowest-power MCU able to run @p plan in real time
 * ("Sizing", Section 3.8).
 *
 * The verdict comes from the plan's static costs — compute *and*
 * RAM — so a deduplicated plan (il::lower's default, what a sharing
 * engine hash-conses at install time) is priced as the hub
 * instantiates it. Implemented as single-executor placement over the
 * MCU ladder: the fleet placer (hub/placer.h) restricted to
 * microcontrollers.
 * @throws CapabilityError when no available MCU suffices.
 */
McuModel selectMcuForPlan(const il::ExecutionPlan &plan);

/**
 * Lowest-power MCU whose compute, RAM, *and* wake budgets cover
 * @p cost (the cycles-only selectMcuForLoad shortcut is gone — no
 * admission decision bypasses the full budget set).
 * @throws CapabilityError when no available MCU suffices.
 */
McuModel selectMcuForCost(const il::ProgramCost &cost);

/**
 * Admission-control diagnostics for @p cost against the platform's
 * MCU fleet: SW017 (error) when no available MCU can run the program,
 * SW201 (note) when the program needs more than the cheapest MCU.
 * Empty when the cheapest MCU suffices.
 */
std::vector<il::Diagnostic> admissionDiagnostics(
    const il::ProgramCost &cost);

} // namespace sidewinder::hub

#endif // SIDEWINDER_HUB_MCU_H
