#include "il/algorithm_info.h"

namespace sidewinder::il {

namespace {

std::vector<AlgorithmInfo>
buildTable()
{
    using VK = ValueKind;
    std::vector<AlgorithmInfo> table;

    auto add = [&](std::string name, std::size_t min_in, std::size_t max_in,
                   std::size_t min_p, std::size_t max_p, VK in, VK out,
                   double cycles, bool fft_family = false) {
        table.push_back(AlgorithmInfo{std::move(name), min_in, max_in,
                                      min_p, max_p, in, out, cycles,
                                      fft_family});
    };

    // Data filtering (noise reduction).
    add("movingAvg", 1, 1, 1, 1, VK::Scalar, VK::Scalar, 4.0);
    add("expMovingAvg", 1, 1, 1, 1, VK::Scalar, VK::Scalar, 3.0);

    // Windowing: params = {size[, hamming(0/1)[, hop]]}.
    add("window", 1, 1, 1, 3, VK::Scalar, VK::Frame, 2.0);

    // Transforms.
    add("fft", 1, 1, 0, 0, VK::Frame, VK::ComplexFrame, 16.0, true);
    add("ifft", 1, 1, 0, 0, VK::ComplexFrame, VK::Frame, 16.0, true);
    add("spectrum", 1, 1, 0, 0, VK::ComplexFrame, VK::Frame, 6.0);

    // FFT-based filtering: params = {cutoffHz}.
    add("lowPass", 1, 1, 1, 1, VK::Frame, VK::Frame, 40.0, true);
    add("highPass", 1, 1, 1, 1, VK::Frame, VK::Frame, 40.0, true);

    // Single-bin spectral probes (Goertzel): params = {targetHz}.
    add("goertzel", 1, 1, 1, 1, VK::Frame, VK::Scalar, 3.0);
    add("goertzelRel", 1, 1, 1, 1, VK::Frame, VK::Scalar, 3.5);

    // Feature extraction.
    add("vectorMagnitude", 1, 8, 0, 0, VK::Scalar, VK::Scalar, 6.0);
    add("zcr", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);
    add("mean", 1, 1, 0, 0, VK::Frame, VK::Scalar, 1.0);
    add("variance", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);
    add("stddev", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.5);
    add("min", 1, 1, 0, 0, VK::Frame, VK::Scalar, 1.0);
    add("max", 1, 1, 0, 0, VK::Frame, VK::Scalar, 1.0);
    add("rms", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);
    add("range", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);
    add("dominantFreqHz", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);
    add("dominantFreqMag", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);
    add("peakToMeanRatio", 1, 1, 0, 0, VK::Frame, VK::Scalar, 2.0);

    // Admission control.
    add("minThreshold", 1, 1, 1, 1, VK::Scalar, VK::Scalar, 1.0);
    add("maxThreshold", 1, 1, 1, 1, VK::Scalar, VK::Scalar, 1.0);
    add("bandThreshold", 1, 1, 2, 2, VK::Scalar, VK::Scalar, 1.0);
    add("outsideBandThreshold", 1, 1, 2, 2, VK::Scalar, VK::Scalar, 1.0);

    // Local extrema: params = {low, high[, refractory]}.
    add("localMaxima", 1, 1, 2, 3, VK::Scalar, VK::Scalar, 3.0);
    add("localMinima", 1, 1, 2, 3, VK::Scalar, VK::Scalar, 3.0);

    // Combinators over conditional branches.
    add("and", 2, 8, 0, 0, VK::Scalar, VK::Scalar, 1.0);
    add("or", 2, 8, 0, 0, VK::Scalar, VK::Scalar, 1.0);

    // Duration / debouncing: params = {count}.
    add("consecutive", 1, 1, 1, 1, VK::Scalar, VK::Scalar, 1.0);

    return table;
}

} // namespace

const std::vector<AlgorithmInfo> &
standardAlgorithms()
{
    static const std::vector<AlgorithmInfo> table = buildTable();
    return table;
}

const AlgorithmInfo *
findAlgorithm(const std::string &name)
{
    for (const auto &info : standardAlgorithms())
        if (info.name == name)
            return &info;
    return nullptr;
}

} // namespace sidewinder::il
