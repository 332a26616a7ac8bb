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

    MovingAverage(const MovingAverage &other);
    MovingAverage &operator=(const MovingAverage &other);
    MovingAverage(MovingAverage &&) noexcept = default;
    MovingAverage &operator=(MovingAverage &&) noexcept = default;

    /**
     * The running state over the window: trivially copyable, so the
     * hub's block loop steps a register-held copy of it and stores it
     * back once per block (cursor()), while push() steps it in place.
     */
    struct Cursor
    {
        /** The window's samples, size() of them, written circularly. */
        double *window = nullptr;
        std::size_t size = 0;
        /** Slot the next sample overwrites: the oldest once full. */
        std::size_t next = 0;
        /** Samples held, up to size. */
        std::size_t filled = 0;
        /** Running sum of the held samples. */
        double sum = 0.0;

        /**
         * Feed one sample: subtract the evicted oldest sample, then add
         * the new one. Writes the window mean into @p mean and returns
         * true once size samples have been seen, else returns false.
         */
        bool
        step(double sample, double &mean)
        {
            // Fields are read once and written once: the window store
            // may alias any double, so a field touched after it would
            // be reloaded from memory.
            const std::size_t slot = next;
            std::size_t held = filled;
            double running = sum;
            if (held == size)
                running -= window[slot];
            else
                ++held;
            running += sample;
            window[slot] = sample;
            sum = running;
            filled = held;
            next = slot + 1 == size ? 0 : slot + 1;
            if (held != size)
                return false;
            mean = running / static_cast<double>(size);
            return true;
        }
    };

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
        double mean = 0.0;
        if (!state.step(sample, mean))
            return std::nullopt;
        return mean;
    }

    /** The running state, for a block loop to copy and store back. */
    Cursor &cursor() { return state; }

    /** Forget all accumulated samples. */
    void reset();

    /** Configured window size. */
    std::size_t windowSize() const { return state.size; }

  private:
    std::vector<double> storage;
    Cursor state;
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
