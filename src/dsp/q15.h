/**
 * @file
 * Q15 fixed-point arithmetic and kernels: the sample format of the
 * hub's real firmware.
 *
 * The paper's MCU prototypes (MSP430, LM4F120) run their signal
 * chains in 16-bit fixed point — one sign bit, 15 fractional bits,
 * values in [-1, 1 - 2^-15] — which is exactly the 2-bytes-per-sample
 * RAM model the static analyzer already charges (il::nodeRamBytes).
 * This module provides the host-side bit-accurate equivalents:
 * saturating arithmetic, streaming filters, a Goertzel probe with a
 * widened accumulator, and a fixed-point FFT driven by the same
 * bit-reversal/twiddle tables as the double precision FftPlan.
 *
 * Convention: a Q15 value q represents the real number q / 32768.
 * Conversions round to nearest and saturate, so
 * fromQ15(toQ15(x)) == x for every x already on the Q15 grid and
 * |fromQ15(toQ15(x)) - x| <= 2^-16 for every x in [-1, 1).
 */

#ifndef SIDEWINDER_DSP_Q15_H
#define SIDEWINDER_DSP_Q15_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dsp/fft_plan.h"
#include "dsp/threshold.h"
#include "support/ring_buffer.h"

namespace sidewinder::dsp {

/** One Q15 fixed-point sample (1.15 signed). */
using Q15 = std::int16_t;

/** Largest representable Q15 value, 1 - 2^-15. */
inline constexpr Q15 kQ15Max = 32767;
/** Smallest representable Q15 value, -1.0. */
inline constexpr Q15 kQ15Min = -32768;
/** Reals per Q15 count: q represents q / kQ15One. */
inline constexpr double kQ15One = 32768.0;

// Saturation-event counters: instrumentation for the range analyzer's
// soundness gate (tests assert that a plan proven Q15-safe produces
// zero events). Enabled in debug and sanitizer builds; compiled out
// of Release so the saturate path stays two compares. An *event* is a
// clamp that loses more than one count — quantizing exactly 1.0
// (Hamming edge coefficients, the cos(0) twiddle) and the lone
// -1 * -1 multiply land one count past the grid by construction and
// are part of normal fixed-point behavior, not saturation.
#if defined(SIDEWINDER_Q15_COUNTERS) || !defined(NDEBUG)
#define SIDEWINDER_Q15_COUNTERS_ENABLED 1
#else
#define SIDEWINDER_Q15_COUNTERS_ENABLED 0
#endif

#if SIDEWINDER_Q15_COUNTERS_ENABLED
namespace detail {
// constinit tells every includer the counter needs no dynamic
// initialization, so GCC emits no TLS wrapper for it. With the
// wrapper, GCC 12 miscompiles UBSan's null check on the variable's
// address (the check's branch reuses the flags of the wrapper's
// weak-symbol test) and reports a "load of null pointer".
extern constinit thread_local std::uint64_t q15SaturationEvents;
}
#endif

/**
 * Saturation events observed on this thread since the last reset;
 * always 0 in Release builds (the counter is compiled out).
 */
std::uint64_t q15SaturationEventCount();

/** Reset this thread's saturation-event counter. No-op in Release. */
void resetQ15SaturationEvents();

/** Clamp a widened intermediate onto the Q15 range. */
inline Q15
saturateQ15(std::int32_t wide)
{
    if (wide > kQ15Max) {
#if SIDEWINDER_Q15_COUNTERS_ENABLED
        if (wide > static_cast<std::int32_t>(kQ15Max) + 1)
            ++detail::q15SaturationEvents;
#endif
        return kQ15Max;
    }
    if (wide < kQ15Min) {
#if SIDEWINDER_Q15_COUNTERS_ENABLED
        if (wide < static_cast<std::int32_t>(kQ15Min) - 1)
            ++detail::q15SaturationEvents;
#endif
        return kQ15Min;
    }
    return static_cast<Q15>(wide);
}

/** Quantize @p x: round to nearest Q15 count, saturating at ±1. */
Q15 toQ15(double x);

/** The real number represented by @p q (exact in double). */
inline double
fromQ15(Q15 q)
{
    return static_cast<double>(q) / kQ15One;
}

/** Saturating Q15 addition. */
inline Q15
q15Add(Q15 a, Q15 b)
{
    return saturateQ15(static_cast<std::int32_t>(a) + b);
}

/** Saturating Q15 subtraction. */
inline Q15
q15Sub(Q15 a, Q15 b)
{
    return saturateQ15(static_cast<std::int32_t>(a) - b);
}

/**
 * Saturating Q15 multiplication with round-to-nearest:
 * (a * b + 0x4000) >> 15. The lone saturating case is
 * kQ15Min * kQ15Min (-1 * -1 = +1, unrepresentable).
 */
inline Q15
q15Mul(Q15 a, Q15 b)
{
    const std::int32_t wide =
        (static_cast<std::int32_t>(a) * b + 0x4000) >> 15;
    return saturateQ15(wide);
}

/** Quantize @p count doubles into @p out. */
void quantizeQ15(const double *in, Q15 *out, std::size_t count);

/**
 * Streaming moving average over Q15 samples: 32-bit running sum,
 * rounded divide. Mirrors dsp::MovingAverage's fill semantics (no
 * result until the window is full). Stores one Q15 per retained
 * sample — the analyzer's 2-byte cost model, verbatim.
 */
class Q15MovingAverage
{
  public:
    explicit Q15MovingAverage(std::size_t window_size);

    std::optional<Q15> push(Q15 sample);
    void reset();
    std::size_t windowSize() const { return history.capacity(); }

  private:
    RingBuffer<Q15> history;
    std::int32_t runningSum = 0;
};

/**
 * Exponential moving average in Q15:
 * y += (alpha_q15 * (x - y)) >> 15, rounded. Seeds on the first
 * sample like the double version.
 */
class Q15ExponentialMovingAverage
{
  public:
    explicit Q15ExponentialMovingAverage(double alpha);

    Q15 push(Q15 sample);
    void reset();

  private:
    Q15 alphaQ15;
    bool seeded = false;
    Q15 state = 0;
};

/**
 * Admission-control comparisons on the Q15 grid: the limits are
 * quantized once at construction (shifting each boundary by at most
 * 2^-16), then every test is a pure integer compare — the firmware's
 * threshold check. Same predicate semantics as dsp::Threshold.
 */
class Q15Threshold
{
  public:
    /** @p low / @p high as for dsp::Threshold (equal for Min/Max). */
    Q15Threshold(ThresholdKind kind, double low, double high);

    /** True when @p value satisfies the predicate. */
    bool admits(Q15 value) const;

    /** The value itself when admitted, otherwise nullopt. */
    std::optional<Q15> push(Q15 value) const
    {
        if (!admits(value))
            return std::nullopt;
        return value;
    }

  private:
    ThresholdKind mode;
    Q15 low;
    Q15 high;
};

/**
 * Goertzel single-bin probe over quantized samples. The recurrence
 * state s[n] grows up to ~N/2, far past the Q15 range, so it runs in
 * a 32-bit accumulator (Q15-scaled) with the 2cos(w) coefficient in
 * Q14 — what the MSP430 firmware does with its 16x16->32 multiplier.
 * The returned magnitude is comparable to dsp::goertzelMagnitude on
 * the dequantized frame.
 */
double q15GoertzelMagnitude(const Q15 *frame, std::size_t count,
                            double target_hz, double sample_rate_hz);

/** Q15 counterpart of dsp::goertzelRelative (same normalization). */
double q15GoertzelRelative(const Q15 *frame, std::size_t count,
                           double target_hz, double sample_rate_hz);

/**
 * Fixed-point radix-2 FFT sharing FftPlan's bit-reversal table, with
 * the twiddle factors quantized to Q15 once per size.
 *
 * forward() scales by 1/2 per stage (1/N overall) so no butterfly
 * can overflow: the spectrum of any Q15 signal satisfies
 * |X(k)| <= N * max|x|, so X(k)/N always fits the Q15 grid.
 * inverse() applies no scaling and is thereby the exact inverse of
 * forward() up to rounding: inverse(forward(x)) ~= x.
 */
class Q15FftPlan
{
  public:
    /** @throws ConfigError unless @p n is a power of two. */
    explicit Q15FftPlan(std::size_t n);

    std::size_t size() const { return points; }

    /** In-place forward transform, output scaled by 1/size(). */
    void forward(Q15 *re, Q15 *im) const;

    /** In-place unscaled inverse of forward(). */
    void inverse(Q15 *re, Q15 *im) const;

    /** Shared plan from a process-wide per-size cache. */
    static std::shared_ptr<const Q15FftPlan> forSize(std::size_t n);

  private:
    void transform(Q15 *re, Q15 *im, bool inv) const;

    std::size_t points;
    /** The double-precision plan whose tables this one quantizes. */
    std::shared_ptr<const FftPlan> tables;
    /** twiddles quantized to Q15: exp(-2*pi*i*j/points). */
    std::vector<Q15> twiddleRe;
    std::vector<Q15> twiddleIm;
};

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_Q15_H
