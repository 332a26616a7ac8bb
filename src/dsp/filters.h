/**
 * @file
 * Data-filtering algorithms from Section 3.6 of the paper:
 * noise reduction (moving average, exponential moving average) and
 * FFT-based low-pass / high-pass filtering.
 */

#ifndef SIDEWINDER_DSP_FILTERS_H
#define SIDEWINDER_DSP_FILTERS_H

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "dsp/fft_plan.h"
#include "support/ring_buffer.h"

namespace sidewinder::dsp {

/**
 * Streaming simple moving average over a fixed window.
 *
 * Per the interpreter semantics of Section 3.5, no result is produced
 * until the window has filled: "A moving average with a window size of
 * N will not produce a result until it has received N data points."
 */
class MovingAverage
{
  public:
    /** @param window_size Number of samples averaged; must be positive. */
    explicit MovingAverage(std::size_t window_size);

    /**
     * Feed one sample.
     * @return the window mean once at least window_size samples have
     *     been seen, otherwise nullopt.
     *
     * Defined inline: this is the inner loop of every smoothing node
     * on the hub, and the block-execution path relies on it
     * pipelining inside the kernels' tight wave loops.
     */
    std::optional<double>
    push(double sample)
    {
        if (history.full())
            runningSum -= history.front();
        history.push(sample);
        runningSum += sample;

        if (!history.full())
            return std::nullopt;
        return runningSum / static_cast<double>(history.capacity());
    }

    /** Forget all accumulated samples. */
    void reset();

    /** Configured window size. */
    std::size_t windowSize() const { return history.capacity(); }

  private:
    RingBuffer<double> history;
    double runningSum;
};

/**
 * Streaming exponential moving average:
 * y[n] = alpha * x[n] + (1 - alpha) * y[n-1].
 *
 * Produces a result for every input once the first sample seeds the
 * state.
 */
class ExponentialMovingAverage
{
  public:
    /** @param alpha Smoothing factor in (0, 1]. */
    explicit ExponentialMovingAverage(double alpha);

    /** Feed one sample and return the updated average (inline for
     * the same block-loop pipelining reason as MovingAverage). */
    double
    push(double sample)
    {
        if (!seeded) {
            state = sample;
            seeded = true;
        } else {
            state = smoothing * sample + (1.0 - smoothing) * state;
        }
        return state;
    }

    /** Forget the accumulated state. */
    void reset();

    /** Configured smoothing factor. */
    double alpha() const { return smoothing; }

  private:
    double smoothing;
    bool seeded;
    double state;
};

/** Direction selector for the FFT block filter. */
enum class PassBand { LowPass, HighPass };

/**
 * FFT-based block filter.
 *
 * Operates on whole frames (as produced by a WindowPartitioner): the
 * frame is transformed, bins outside the pass band are zeroed, and the
 * frame is transformed back to the time domain. Frame sizes must be
 * powers of two.
 */
class FftBlockFilter
{
  public:
    /**
     * @param band LowPass keeps frequencies <= cutoff; HighPass keeps
     *     frequencies >= cutoff.
     * @param cutoff_hz Cutoff frequency in Hz; must be positive.
     * @param sample_rate_hz Sampling rate of the input stream.
     */
    FftBlockFilter(PassBand band, double cutoff_hz, double sample_rate_hz);

    /** Filter one frame; the input size must be a power of two. */
    std::vector<double> apply(const std::vector<double> &frame) const;

    /**
     * Filter one frame into caller-owned storage. Uses the planned
     * real transforms and an internal spectrum scratch buffer, so the
     * steady state (same frame size every call) performs no heap
     * allocation. Not safe for concurrent calls on one filter
     * instance (the scratch is shared).
     */
    void applyInto(const std::vector<double> &frame,
                   std::vector<double> &out) const;

    /**
     * Filter a frame whose forward spectrum the caller already holds,
     * as FftPlan::forwardReal() writes it: zero the stop band of
     * @p bins and inverse-transform them into @p out. applyInto() is
     * a forward transform plus this call, so both give the same bits.
     * Same concurrency rule as applyInto().
     *
     * @param bins N conjugate-symmetric bins, N a power of two;
     *     clobbered (the inverse uses them as scratch).
     */
    void applySpectrumInto(std::vector<Complex> &bins,
                           std::vector<double> &out) const;

    /** Configured cutoff frequency in Hz. */
    double cutoffHz() const { return cutoff; }

    /** Configured pass band direction. */
    PassBand band() const { return direction; }

  private:
    /** Build the plan and stop band for @p n-point frames if stale. */
    void prepare(std::size_t n) const;

    PassBand direction;
    double cutoff;
    double sampleRate;
    /** Plan, stop band and scratch for the current frame size, built
     * lazily. */
    mutable std::shared_ptr<const FftPlan> plan;
    /** Bins 0..N/2 outside the pass band, ascending. */
    mutable std::vector<std::size_t> stopBins;
    mutable std::vector<Complex> spectrum;
};

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_FILTERS_H
