#include "dsp/window.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "support/error.h"

namespace sidewinder::dsp {

double
hammingCoefficient(std::size_t i, std::size_t n)
{
    if (n <= 1)
        return 1.0;
    return 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                                  static_cast<double>(i) /
                                  static_cast<double>(n - 1));
}

WindowPartitioner::WindowPartitioner(std::size_t size, WindowType type,
                                     std::size_t hop)
    : frameSize(size), hopSize(hop == 0 ? size : hop), windowType(type)
{
    if (frameSize == 0)
        throw ConfigError("window size must be positive");
    if (hopSize == 0 || hopSize > frameSize)
        throw ConfigError("window hop must be in [1, size]");
    pending.reserve(frameSize);
    if (windowType == WindowType::Hamming) {
        coefficients.resize(frameSize);
        for (std::size_t i = 0; i < frameSize; ++i)
            coefficients[i] = hammingCoefficient(i, frameSize);
    }
}

bool
WindowPartitioner::pushInto(double sample, std::vector<double> &frame)
{
    pending.push_back(sample);
    if (pending.size() < frameSize)
        return false;

    frame.resize(frameSize);
    if (coefficients.empty()) {
        std::copy(pending.begin(), pending.end(), frame.begin());
    } else {
        for (std::size_t i = 0; i < frameSize; ++i)
            frame[i] = pending[i] * coefficients[i];
    }

    // Retain the overlap tail for the next frame.
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(hopSize));
    return true;
}

void
WindowPartitioner::appendPartial(const double *samples, std::size_t n)
{
    if (n >= remainingToFrame())
        throw ConfigError("appendPartial would complete a frame");
    pending.insert(pending.end(), samples, samples + n);
}

void
WindowPartitioner::reset()
{
    pending.clear();
}

} // namespace sidewinder::dsp
