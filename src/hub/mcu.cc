#include "hub/mcu.h"

#include <sstream>

#include "hub/placer.h"
#include "support/error.h"

namespace sidewinder::hub {

McuModel
msp430()
{
    // 16 KB-class SRAM (MSP430F5438 family): enough for
    // accelerometer-rate windows, too small for audio FFT state.
    return McuModel{"MSP430", 3.6, 50'000.0, 16 * 1024};
}

McuModel
lm4f120()
{
    // 32 KB SRAM on the LM4F120H5QR Cortex-M4.
    return McuModel{"LM4F120", 49.4, 10'000'000.0, 32 * 1024};
}

const std::vector<McuModel> &
availableMcus()
{
    static const std::vector<McuModel> mcus = {msp430(), lm4f120()};
    return mcus;
}

bool
canRunInRealTime(const McuModel &mcu, double cycles_per_second)
{
    return cycles_per_second <= mcu.cyclesPerSecond;
}

bool
fitsBudget(const McuModel &mcu, const il::ProgramCost &cost)
{
    if (!canRunInRealTime(mcu, cost.cyclesPerSecond))
        return false;
    if (mcu.ramBytes != 0 && cost.ramBytes > mcu.ramBytes)
        return false;
    return mcu.wakeBudgetHz == 0.0 ||
           cost.wakeRateBoundHz <= mcu.wakeBudgetHz;
}

McuModel
selectMcuForCost(const il::ProgramCost &cost)
{
    for (const auto &mcu : availableMcus())
        if (fitsBudget(mcu, cost))
            return mcu;
    std::ostringstream msg;
    msg << "no available hub microcontroller fits the condition ("
        << cost.cyclesPerSecond << " cycle units/s, " << cost.ramBytes
        << " bytes of state)";
    throw CapabilityError(msg.str());
}

McuModel
selectMcuForPlan(const il::ExecutionPlan &plan)
{
    // Single-executor placement over the MCU ladder: with one
    // condition and no congestion, the negotiated placer's
    // minimum-power choice is exactly the cheapest-first ladder walk
    // this function used to hand-roll.
    std::vector<ExecutorModel> ladder;
    for (const auto &mcu : availableMcus())
        ladder.push_back(mcuExecutor(mcu));
    const PlacementDecision home = placeCondition(plan, ladder);
    if (home.placed())
        return availableMcus()[static_cast<std::size_t>(
            home.executorIndex)];
    // Re-derive selectMcuForCost's exact error for callers that pin
    // its message.
    selectMcuForCost(plan.cost());
    throw InternalError("placer rejected a plan selectMcuForCost fits");
}

std::vector<il::Diagnostic>
admissionDiagnostics(const il::ProgramCost &cost)
{
    std::vector<il::Diagnostic> diagnostics;
    const auto &mcus = availableMcus();
    if (mcus.empty())
        return diagnostics;

    for (const auto &mcu : mcus) {
        if (!fitsBudget(mcu, cost))
            continue;
        if (mcu.name != mcus.front().name) {
            il::Diagnostic note;
            note.code = il::SW201_MCU_ASSIGNMENT;
            note.severity = il::Severity::Note;
            note.line = 1;
            note.column = 1;
            std::ostringstream msg;
            msg << "condition needs the " << mcu.name << " ("
                << cost.cyclesPerSecond << " cycle units/s, "
                << cost.ramBytes << " bytes; " << mcus.front().name
                << " sustains " << mcus.front().cyclesPerSecond
                << " cycle units/s with " << mcus.front().ramBytes
                << " bytes)";
            note.message = msg.str();
            note.hint = "expect " + std::to_string(mcu.activePowerMw) +
                        " mW while awake instead of " +
                        std::to_string(mcus.front().activePowerMw) +
                        " mW";
            diagnostics.push_back(std::move(note));
        }
        return diagnostics;
    }

    il::Diagnostic error;
    error.code = il::SW017_ADMISSION;
    error.severity = il::Severity::Error;
    error.line = 1;
    error.column = 1;
    std::ostringstream msg;
    msg << "condition fits no available hub microcontroller ("
        << cost.cyclesPerSecond << " cycle units/s, " << cost.ramBytes
        << " bytes of state";
    if (cost.wakeRateBoundHz > 0.0)
        msg << ", up to " << cost.wakeRateBoundHz << " wake-ups/s";
    msg << "; largest budget is " << mcus.back().cyclesPerSecond
        << " cycle units/s with " << mcus.back().ramBytes << " bytes)";
    error.message = msg.str();
    error.hint = "reduce window sizes or firing rates, or split the "
                 "condition; a tighter proven wake bound "
                 "(swlint --ranges, SW312) may also fit a wake budget "
                 "the syntactic bound blows";
    diagnostics.push_back(std::move(error));
    return diagnostics;
}

} // namespace sidewinder::hub
