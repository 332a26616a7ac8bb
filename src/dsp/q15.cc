#include "dsp/q15.h"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "support/error.h"

namespace sidewinder::dsp {

#if SIDEWINDER_Q15_COUNTERS_ENABLED
namespace detail {
constinit thread_local std::uint64_t q15SaturationEvents = 0;
}
#endif

std::uint64_t
q15SaturationEventCount()
{
#if SIDEWINDER_Q15_COUNTERS_ENABLED
    return detail::q15SaturationEvents;
#else
    return 0;
#endif
}

void
resetQ15SaturationEvents()
{
#if SIDEWINDER_Q15_COUNTERS_ENABLED
    detail::q15SaturationEvents = 0;
#endif
}

Q15
toQ15(double x)
{
    // Round-to-nearest on the Q15 grid, saturating at the ends.
    const double scaled = x * kQ15One;
    if (scaled >= static_cast<double>(kQ15Max)) {
#if SIDEWINDER_Q15_COUNTERS_ENABLED
        // Same >1-count event rule as saturateQ15: quantizing values
        // up to and including 1.0 rounds onto (or one count past)
        // the grid and is not an event.
        if (scaled >= static_cast<double>(kQ15Max) + 1.5)
            ++detail::q15SaturationEvents;
#endif
        return kQ15Max;
    }
    if (scaled <= static_cast<double>(kQ15Min)) {
#if SIDEWINDER_Q15_COUNTERS_ENABLED
        if (scaled <= static_cast<double>(kQ15Min) - 1.5)
            ++detail::q15SaturationEvents;
#endif
        return kQ15Min;
    }
    return static_cast<Q15>(std::lround(scaled));
}

void
quantizeQ15(const double *in, Q15 *out, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = toQ15(in[i]);
}

// ---------------------------------------------------------------------
// Streaming filters.

Q15MovingAverage::Q15MovingAverage(std::size_t window_size)
    : history(window_size)
{
}

std::optional<Q15>
Q15MovingAverage::push(Q15 sample)
{
    if (history.full())
        runningSum -= history.front();
    history.push(sample);
    runningSum += sample;
    if (!history.full())
        return std::nullopt;
    const auto n = static_cast<std::int32_t>(history.size());
    // Rounded signed divide: shift the numerator by half the divisor
    // toward the sum's sign so the truncation rounds to nearest.
    const std::int32_t bias = runningSum >= 0 ? n / 2 : -(n / 2);
    return saturateQ15((runningSum + bias) / n);
}

void
Q15MovingAverage::reset()
{
    history.clear();
    runningSum = 0;
}

Q15ExponentialMovingAverage::Q15ExponentialMovingAverage(double alpha)
    : alphaQ15(toQ15(alpha))
{
    if (!(alpha > 0.0) || alpha > 1.0)
        throw ConfigError("Q15 EMA alpha must be in (0, 1]");
}

Q15
Q15ExponentialMovingAverage::push(Q15 sample)
{
    if (!seeded) {
        seeded = true;
        state = sample;
        return state;
    }
    // y += round(alpha * (x - y)): the delta fits 17 bits, so the
    // product runs in 32 bits before the rounding shift.
    const std::int32_t delta =
        static_cast<std::int32_t>(sample) - state;
    const std::int32_t step =
        (static_cast<std::int32_t>(alphaQ15) * delta + 0x4000) >> 15;
    state = saturateQ15(static_cast<std::int32_t>(state) + step);
    return state;
}

void
Q15ExponentialMovingAverage::reset()
{
    seeded = false;
    state = 0;
}

// ---------------------------------------------------------------------
// Threshold.

Q15Threshold::Q15Threshold(ThresholdKind kind, double low_, double high_)
    : mode(kind), low(toQ15(low_)), high(toQ15(high_))
{
}

bool
Q15Threshold::admits(Q15 value) const
{
    switch (mode) {
      case ThresholdKind::Min:
        return value >= low;
      case ThresholdKind::Max:
        return value <= low;
      case ThresholdKind::Band:
        return value >= low && value <= high;
      case ThresholdKind::OutsideBand:
        return value < low || value > high;
    }
    return false;
}

// ---------------------------------------------------------------------
// Goertzel.

namespace {

std::int32_t
goertzelState(const Q15 *frame, std::size_t count, double omega,
              std::int32_t &s_prev, std::int32_t &s_prev2)
{
    // 2cos(w) in [-2, 2] takes Q14; the recurrence state grows to
    // ~N/2 in real terms, so it lives in a 32-bit Q15 accumulator
    // and the products run in 64 bits before the rounding shift.
    const std::int32_t coeff_q14 =
        static_cast<std::int32_t>(std::lround(2.0 * std::cos(omega) *
                                              16384.0));
    s_prev = 0;
    s_prev2 = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t prod =
            static_cast<std::int64_t>(coeff_q14) * s_prev;
        const std::int32_t s =
            static_cast<std::int32_t>((prod + 0x2000) >> 14) -
            s_prev2 + frame[i];
        s_prev2 = s_prev;
        s_prev = s;
    }
    return coeff_q14;
}

} // namespace

double
q15GoertzelMagnitude(const Q15 *frame, std::size_t count,
                     double target_hz, double sample_rate_hz)
{
    if (count == 0)
        throw ConfigError("goertzel on empty frame");
    if (!(sample_rate_hz > 0.0))
        throw ConfigError("goertzel sample rate must be positive");
    if (!(target_hz > 0.0) || target_hz >= sample_rate_hz / 2.0)
        throw ConfigError("goertzel target must be in (0, Nyquist)");

    const double omega =
        2.0 * std::numbers::pi * target_hz / sample_rate_hz;
    std::int32_t s1 = 0;
    std::int32_t s2 = 0;
    const std::int32_t coeff_q14 =
        goertzelState(frame, count, omega, s1, s2);

    // |X|^2 = s1^2 + s2^2 - 2cos(w) s1 s2, evaluated on the integer
    // state; the final square root is the one floating step, matching
    // firmware that hands the power off to a sqrt routine.
    const double a = static_cast<double>(s1);
    const double b = static_cast<double>(s2);
    const double coeff = static_cast<double>(coeff_q14) / 16384.0;
    const double power = a * a + b * b - coeff * a * b;
    return std::sqrt(std::max(power, 0.0)) / kQ15One;
}

double
q15GoertzelRelative(const Q15 *frame, std::size_t count,
                    double target_hz, double sample_rate_hz)
{
    const double mag =
        q15GoertzelMagnitude(frame, count, target_hz, sample_rate_hz);
    // Same normalization as dsp::goertzelRelative, with the frame
    // energy accumulated in integers (counts of 2^-30).
    std::int64_t energy = 0;
    for (std::size_t i = 0; i < count; ++i)
        energy += static_cast<std::int64_t>(frame[i]) * frame[i];
    const double n = static_cast<double>(count);
    const double energy_real =
        static_cast<double>(energy) / (kQ15One * kQ15One);
    const double amplitude = std::sqrt(2.0 * energy_real / n);
    const double peak = amplitude * n / 2.0;
    return peak > 0.0 ? mag / peak : 0.0;
}

// ---------------------------------------------------------------------
// Fixed-point FFT.

Q15FftPlan::Q15FftPlan(std::size_t n)
    : points(n), tables(FftPlan::forSize(n))
{
    const auto &tw = tables->twiddleTable();
    twiddleRe.reserve(tw.size());
    twiddleIm.reserve(tw.size());
    for (const Complex &w : tw) {
        twiddleRe.push_back(toQ15(w.real()));
        twiddleIm.push_back(toQ15(w.imag()));
    }
}

void
Q15FftPlan::transform(Q15 *re, Q15 *im, bool inv) const
{
    const auto &bitrev = tables->bitReversal();
    for (std::size_t i = 0; i < points; ++i) {
        const std::size_t j = bitrev[i];
        if (i < j) {
            std::swap(re[i], re[j]);
            std::swap(im[i], im[j]);
        }
    }

    for (std::size_t len = 2; len <= points; len <<= 1) {
        const std::size_t step = points / len;
        const std::size_t half = len / 2;
        for (std::size_t start = 0; start < points; start += len) {
            for (std::size_t k = 0; k < half; ++k) {
                const std::size_t tw = k * step;
                const std::int32_t wr = twiddleRe[tw];
                // Forward twiddles are exp(-j...); the inverse run
                // conjugates them.
                const std::int32_t wi =
                    inv ? -static_cast<std::int32_t>(twiddleIm[tw])
                        : twiddleIm[tw];
                const std::size_t a = start + k;
                const std::size_t b = a + half;
                // (wr + j wi) * (re[b] + j im[b]) in Q30, rounded
                // back to Q15.
                const std::int32_t tr = static_cast<std::int32_t>(
                    (wr * re[b] - wi * im[b] + 0x4000) >> 15);
                const std::int32_t ti = static_cast<std::int32_t>(
                    (wr * im[b] + wi * re[b] + 0x4000) >> 15);
                std::int32_t sum_r = re[a] + tr;
                std::int32_t sum_i = im[a] + ti;
                std::int32_t diff_r = re[a] - tr;
                std::int32_t diff_i = im[a] - ti;
                if (!inv) {
                    // Scale by 1/2 per stage (1/N overall): every
                    // butterfly output stays on the Q15 grid, the
                    // fixed-point equivalent of block floating point
                    // with a known final exponent.
                    sum_r = (sum_r + 1) >> 1;
                    sum_i = (sum_i + 1) >> 1;
                    diff_r = (diff_r + 1) >> 1;
                    diff_i = (diff_i + 1) >> 1;
                }
                re[a] = saturateQ15(sum_r);
                im[a] = saturateQ15(sum_i);
                re[b] = saturateQ15(diff_r);
                im[b] = saturateQ15(diff_i);
            }
        }
    }
}

void
Q15FftPlan::forward(Q15 *re, Q15 *im) const
{
    transform(re, im, false);
}

void
Q15FftPlan::inverse(Q15 *re, Q15 *im) const
{
    // forward() already divided by N, so the mathematical inverse
    // applies no normalization. Intermediate values re-grow toward
    // the time-domain magnitudes, which fit Q15 by construction.
    transform(re, im, true);
}

std::shared_ptr<const Q15FftPlan>
Q15FftPlan::forSize(std::size_t n)
{
    static std::mutex lock;
    static std::unordered_map<std::size_t,
                              std::shared_ptr<const Q15FftPlan>>
        cache;
    std::lock_guard<std::mutex> guard(lock);
    auto it = cache.find(n);
    if (it != cache.end())
        return it->second;
    auto plan = std::make_shared<const Q15FftPlan>(n);
    cache.emplace(n, plan);
    return plan;
}

} // namespace sidewinder::dsp
