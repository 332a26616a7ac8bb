#include "dsp/filters.h"

#include <cmath>

#include "dsp/fft.h"
#include "support/error.h"

namespace sidewinder::dsp {

MovingAverage::MovingAverage(std::size_t window_size)
{
    if (window_size == 0)
        throw ConfigError("moving average window must be positive");
    storage.resize(window_size);
    state.window = storage.data();
    state.size = window_size;
}

MovingAverage::MovingAverage(const MovingAverage &other)
    : storage(other.storage), state(other.state)
{
    state.window = storage.data();
}

MovingAverage &
MovingAverage::operator=(const MovingAverage &other)
{
    storage = other.storage;
    state = other.state;
    state.window = storage.data();
    return *this;
}

void
MovingAverage::reset()
{
    state.next = 0;
    state.filled = 0;
    state.sum = 0.0;
}

ExponentialMovingAverage::ExponentialMovingAverage(double alpha)
    : smoothing(alpha), seeded(false), state(0.0)
{
    if (!(alpha > 0.0) || alpha > 1.0)
        throw ConfigError("EMA alpha must be in (0, 1]");
}

void
ExponentialMovingAverage::reset()
{
    seeded = false;
    state = 0.0;
}

FftBlockFilter::FftBlockFilter(PassBand band, double cutoff_hz,
                               double sample_rate_hz)
    : direction(band), cutoff(cutoff_hz), sampleRate(sample_rate_hz)
{
    if (!(cutoff_hz > 0.0))
        throw ConfigError("filter cutoff must be positive");
    if (!(sample_rate_hz > 0.0))
        throw ConfigError("sample rate must be positive");
    if (cutoff_hz >= sample_rate_hz / 2.0)
        throw ConfigError("filter cutoff must be below Nyquist");
}

std::vector<double>
FftBlockFilter::apply(const std::vector<double> &frame) const
{
    std::vector<double> out;
    applyInto(frame, out);
    return out;
}

void
FftBlockFilter::prepare(std::size_t n) const
{
    if (plan && plan->size() == n)
        return;
    if (!isPowerOfTwo(n))
        throw ConfigError("FFT filter frame size must be a power of two");
    plan = FftPlan::forSize(n);
    stopBins.clear();
    for (std::size_t i = 0; i <= n / 2; ++i) {
        const double freq = binFrequencyHz(i, n, sampleRate);
        const bool keep = direction == PassBand::LowPass ? freq <= cutoff
                                                         : freq >= cutoff;
        if (!keep)
            stopBins.push_back(i);
    }
}

void
FftBlockFilter::applyInto(const std::vector<double> &frame,
                          std::vector<double> &out) const
{
    prepare(frame.size());
    spectrum.resize(frame.size());
    plan->forwardReal(frame.data(), spectrum.data());
    applySpectrumInto(spectrum, out);
}

void
FftBlockFilter::applySpectrumInto(std::vector<Complex> &bins,
                                  std::vector<double> &out) const
{
    const std::size_t n = bins.size();
    prepare(n);

    // Zero the stop band. Bin i and its mirror n-i represent the same
    // frequency for a real signal, so both are zeroed together to keep
    // the output real (and the spectrum conjugate-symmetric, which the
    // half-size inverse relies on).
    for (const std::size_t i : stopBins) {
        bins[i] = Complex(0.0, 0.0);
        if (i != 0 && i != n / 2)
            bins[n - i] = Complex(0.0, 0.0);
    }

    out.resize(n);
    plan->inverseReal(bins.data(), out.data());
}

} // namespace sidewinder::dsp
