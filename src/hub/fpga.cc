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

} // namespace sidewinder::hub
