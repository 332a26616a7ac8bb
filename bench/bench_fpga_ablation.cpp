/**
 * @file
 * Hub-backend ablation (Sections 3.8 "Sizing" and 7 "FPGA-based
 * prototype"): for each application's wake-up condition, compare the
 * three hub backends — MSP430, LM4F120, and the modeled iCE40-class
 * FPGA — on feasibility and hub power, and show what the cheaper hub
 * does to the end-to-end Sidewinder power of Table 2 / Figure 5.
 */

#include <cstdio>

#include "apps/apps.h"
#include "bench_common.h"
#include "hub/fpga.h"
#include "hub/mcu.h"
#include "il/lower.h"

using namespace sidewinder;

int
main()
{
    std::printf("Hub backend ablation: per-condition feasibility and "
                "hub power (mW)\n");
    bench::rule(78);
    std::printf("%-12s %12s | %8s %8s | %8s %8s %7s\n", "app",
                "cycle-units/s", "MSP430", "LM4F120", "FPGA", "cells",
                "fits");
    bench::rule(78);

    const auto fpga = hub::ice40Hub();
    for (const auto &app : apps::allApps()) {
        const auto program = app->wakeCondition().compile();
        const auto channels = app->channels();
        // The unshared upper bound: every statement as written.
        const double load =
            il::lower(program, channels, il::LowerOptions{false})
                .cost()
                .cyclesPerSecond;

        const bool msp_ok = hub::canRunInRealTime(hub::msp430(), load);
        const bool lm_ok = hub::canRunInRealTime(hub::lm4f120(), load);
        const auto placement =
            hub::planFpgaPlacement(il::lower(program, channels), fpga);

        std::printf("%-12s %12.0f | %8s %8s | %8.2f %8zu %7s\n",
                    app->name().c_str(), load,
                    msp_ok ? "3.60" : "reject",
                    lm_ok ? "49.40" : "reject",
                    placement.totalPowerMw(fpga), placement.cellsUsed,
                    placement.fits ? "yes" : "no");
    }
    bench::rule(78);

    // What the FPGA would do to the siren detector's Table 2 row: the
    // LM4F120's 49.4 mW dominates Sidewinder's siren power; an FPGA
    // hub removes almost all of it.
    const auto siren = apps::makeSirenApp();
    const auto placement = hub::planFpgaPlacement(
        il::lower(siren->wakeCondition().compile(), siren->channels()),
        fpga);
    const double lm_hub = hub::lm4f120().activePowerMw;
    const double fpga_hub = placement.totalPowerMw(fpga);
    std::printf("\nsiren detector hub power: LM4F120 %.1f mW -> FPGA "
                "%.2f mW (saves %.1f mW of the Table 2 Sidewinder "
                "row)\n",
                lm_hub, fpga_hub, lm_hub - fpga_hub);
    std::printf("reconfiguration cost per condition swap: %.0f ms of "
                "hub blindness\n",
                1000.0 * fpga.reconfigSeconds);
    return 0;
}
