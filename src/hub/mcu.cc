#include "hub/mcu.h"

#include <sstream>

#include "hub/placer.h"

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

std::vector<il::Diagnostic>
admissionDiagnostics(const il::ExecutionPlan &plan)
{
    std::vector<il::Diagnostic> diagnostics;
    const auto &mcus = availableMcus();
    const il::ProgramCost cost = plan.cost();
    const PlacementDecision home = placeCondition(plan, mcuExecutors());
    if (home.placed()) {
        const McuModel &mcu =
            mcus[static_cast<std::size_t>(home.executorIndex)];
        if (home.executorIndex != 0) {
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
