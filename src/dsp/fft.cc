#include "dsp/fft.h"

#include <cmath>
#include <numbers>

#include "dsp/fft_plan.h"
#include "support/error.h"

namespace sidewinder::dsp {

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

namespace {

/** Bit-reversal permutation used by the naive iterative FFT. */
void
bitReverse(std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }
}

/**
 * Reference butterfly loop; @p inverse selects the conjugate twiddles.
 * Note the w *= wlen recurrence: it accumulates rounding error across
 * a stage, which is exactly what FftPlan's tabulated twiddles fix.
 */
void
naiveTransform(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    if (!isPowerOfTwo(n))
        throw ConfigError("FFT size must be a power of two, got " +
                          std::to_string(n));

    countNaiveTransform();
    bitReverse(data);

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            2.0 * std::numbers::pi / static_cast<double>(len) *
            (inverse ? 1.0 : -1.0);
        const Complex wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                Complex u = data[i + k];
                Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto &x : data)
            x *= scale;
    }
}

} // namespace

void
naiveFft(std::vector<Complex> &data)
{
    naiveTransform(data, false);
}

void
naiveIfft(std::vector<Complex> &data)
{
    naiveTransform(data, true);
}

std::vector<Complex>
fftReal(const std::vector<double> &samples)
{
    std::vector<Complex> data(samples.size());
    FftPlan::forSize(samples.size())->forwardReal(samples.data(),
                                                  data.data());
    return data;
}

double
binFrequencyHz(std::size_t bin, std::size_t fft_size, double sample_rate_hz)
{
    if (fft_size == 0)
        throw ConfigError("binFrequencyHz: fft_size must be positive");
    return static_cast<double>(bin) * sample_rate_hz /
           static_cast<double>(fft_size);
}

} // namespace sidewinder::dsp
