#include "hub/fpga.h"

#include <algorithm>

#include "support/error.h"

namespace sidewinder::hub {

FpgaModel
ice40Hub()
{
    FpgaModel fpga;
    fpga.name = "iCE40-hub";
    // A small flash FPGA idles near a milliwatt and reconfigures from
    // SPI flash in well under a second.
    fpga.staticPowerMw = 1.2;
    fpga.logicCells = 7680;
    fpga.reconfigSeconds = 0.08;
    fpga.nanojoulesPerCycleUnit = 0.05;
    return fpga;
}

std::size_t
fpgaCellCost(const std::string &algorithm, std::size_t frame_size)
{
    // Footprints of the pre-compiled blocks, in logic cells. Frame
    // algorithms scale with buffer depth (BRAM mapped to cells here
    // for a single-resource budget).
    const std::size_t frame =
        std::max<std::size_t>(frame_size, 1);

    if (algorithm == "movingAvg" || algorithm == "expMovingAvg")
        return 120;
    if (algorithm == "window")
        return 60 + frame / 4;
    if (algorithm == "fft" || algorithm == "ifft")
        return 900 + frame / 2;
    if (algorithm == "spectrum")
        return 300;
    if (algorithm == "lowPass" || algorithm == "highPass")
        return 1400 + frame / 2; // FFT + bin mask + IFFT datapath
    if (algorithm == "vectorMagnitude")
        return 350; // multipliers + sqrt
    if (algorithm == "goertzel" || algorithm == "goertzelRel")
        return 160; // two-tap IIR + magnitude datapath
    if (algorithm == "zcr")
        return 90;
    if (algorithm == "mean" || algorithm == "min" ||
        algorithm == "max" || algorithm == "range")
        return 80;
    if (algorithm == "variance" || algorithm == "stddev" ||
        algorithm == "rms")
        return 220;
    if (algorithm == "dominantFreqHz" ||
        algorithm == "dominantFreqMag" ||
        algorithm == "peakToMeanRatio")
        return 180;
    if (algorithm == "minThreshold" || algorithm == "maxThreshold" ||
        algorithm == "bandThreshold" ||
        algorithm == "outsideBandThreshold")
        return 40;
    if (algorithm == "localMaxima" || algorithm == "localMinima")
        return 110;
    if (algorithm == "and" || algorithm == "or")
        return 20;
    if (algorithm == "consecutive")
        return 60;

    throw ConfigError("no FPGA block for algorithm '" + algorithm +
                      "'");
}

FpgaPlacement
planFpgaPlacement(const il::ExecutionPlan &plan, const FpgaModel &fpga)
{
    FpgaPlacement placement;
    double dynamic_mw = 0.0;

    for (std::size_t i = 0; i < plan.nodeCount(); ++i) {
        // Buffer-bearing blocks size with the larger of their input
        // and output frames (a window's cells hold its output frame).
        const std::size_t input_frame =
            plan.inputCounts[i] > 0 ? plan.inputStream(i, 0).frameSize
                                    : 0;
        const std::size_t sizing_frame =
            std::max(input_frame, plan.streams[i].frameSize);

        FpgaPlacementEntry entry;
        entry.node = plan.sourceIds[i];
        entry.algorithm = plan.algorithms[i];
        entry.cells = fpgaCellCost(plan.algorithms[i], sizing_frame);
        placement.entries.push_back(entry);
        placement.cellsUsed += entry.cells;

        // Dynamic power: the plan's cycle-unit demand priced at the
        // fabric's energy per unit. mW = (units/s) * nJ/unit * 1e-6.
        dynamic_mw += plan.cyclesPerInvoke[i] * plan.invokeRateHz[i] *
                      fpga.nanojoulesPerCycleUnit * 1e-6;
    }

    placement.dynamicPowerMw = dynamic_mw;
    placement.fits = placement.cellsUsed <= fpga.logicCells;
    return placement;
}

} // namespace sidewinder::hub
