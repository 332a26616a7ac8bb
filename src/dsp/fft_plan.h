/**
 * @file
 * Planned FFT execution: per-size cached bit-reversal and twiddle
 * tables, in-place transforms on caller-owned storage, and real-input
 * transforms using the packed N/2 complex-FFT trick.
 *
 * The naive transform in fft.cc recomputes its twiddles with a
 * `w *= wlen` recurrence (error accumulates over a stage) and walks
 * the bit-reversal permutation arithmetically on every call. A plan
 * precomputes both once per size, so the steady-state hub interpreter
 * does no trigonometry, no table rebuilds, and — when the caller
 * reuses its buffers — no heap allocation per frame. This is the
 * MCU-shaped fast path behind Section 3.8's sizing argument: the
 * FFT-family kernels dominate hub cost, so they get the planned
 * treatment.
 */

#ifndef SIDEWINDER_DSP_FFT_PLAN_H
#define SIDEWINDER_DSP_FFT_PLAN_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dsp/fft.h"

namespace sidewinder::dsp {

/**
 * A reusable transform plan for one power-of-two size.
 *
 * Plans are immutable after construction; all transform methods are
 * const and thread-safe. Plans come from forSize() only — the
 * process-wide cache also shares the half-size plan chain that the
 * real-input transforms use.
 */
class FftPlan
{
  public:
    /** Transform size in points. */
    std::size_t size() const { return points; }

    /** In-place forward FFT of @p data (size() complex points). */
    void forward(Complex *data) const;

    /** In-place inverse FFT including the 1/N normalization. */
    void inverse(Complex *data) const;

    /**
     * Forward FFT of a real signal via the packed half-size complex
     * transform: size()/2 butterfly stages instead of size(), plus an
     * O(N) untangle. Writes the full conjugate-symmetric spectrum.
     *
     * @param samples size() real input samples.
     * @param out Caller-owned storage for size() complex bins; used
     *     in-place as packing scratch, so no allocation occurs.
     */
    void forwardReal(const double *samples, Complex *out) const;

    /**
     * Vector overload of forwardReal(); resizes @p out to size()
     * (allocation-free once its capacity has grown).
     */
    void forwardReal(const std::vector<double> &samples,
                     std::vector<Complex> &out) const;

    /**
     * Inverse of forwardReal() for conjugate-symmetric spectra (the
     * spectrum of any real signal). Runs the half-size inverse
     * transform in-place on @p spectrum — the first size()/2 entries
     * are clobbered as scratch.
     *
     * @param spectrum size() complex bins; modified.
     * @param out Caller-owned storage for size() real samples.
     */
    void inverseReal(Complex *spectrum, double *out) const;

    /**
     * Shared plan for @p n points from the process-wide cache.
     * Creation is amortized: steady-state callers that hold the
     * returned pointer never touch the cache lock again.
     */
    static std::shared_ptr<const FftPlan> forSize(std::size_t n);

    /**
     * The precomputed bit-reversal permutation (bitrev[i] =
     * bit-reversed i). Shared with the fixed-point Q15FftPlan so the
     * two transforms are table-identical.
     */
    const std::vector<std::uint32_t> &bitReversal() const
    {
        return bitrev;
    }

    /** The precomputed twiddles, exp(-2*pi*i*j/size()), j < size()/2. */
    const std::vector<Complex> &twiddleTable() const { return twiddles; }

  private:
    FftPlan(std::size_t n, std::shared_ptr<const FftPlan> half_plan);

    /** Put @p data in bit-reversed order (the swaps below). */
    void permute(Complex *data) const;

    /**
     * The log2(size()) radix-2 butterfly stages on bit-reversed
     * @p data, without the inverse's 1/N scaling.
     */
    template <bool Inverse> void butterflies(Complex *data) const;

    std::size_t points;
    /** bitrev[i] = bit-reversed i. */
    std::vector<std::uint32_t> bitrev;
    /** The pairs (i, bitrev[i]) with i < bitrev[i]: permute()'s swaps. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
    /** twiddles[j] = exp(-2*pi*i*j / points), j < points/2. */
    std::vector<Complex> twiddles;
    /** Half-size plan backing the real-input transforms (null for 1). */
    std::shared_ptr<const FftPlan> half;
};

/**
 * Counters distinguishing planned from naive transform executions,
 * used by the benchmarks to prove the hot path actually runs planned.
 * Cheap relaxed atomics; always on.
 */
struct FftCounters
{
    /** forward()/inverse() executions (complex, planned). */
    std::uint64_t plannedTransforms = 0;
    /** forwardReal()/inverseReal() executions (half-size trick). */
    std::uint64_t plannedRealTransforms = 0;
    /** naiveFft()/naiveIfft() reference-path executions. */
    std::uint64_t naiveTransforms = 0;
    /** Plans constructed (forSize() cache misses). */
    std::uint64_t plansBuilt = 0;
    /** forSize() calls served from the cache. */
    std::uint64_t planCacheHits = 0;
};

/** Snapshot of the process-wide transform counters. */
FftCounters fftCounters();

/** Zero the transform counters (benchmark setup). */
void resetFftCounters();

/** Internal: records one naive-path execution (used by fft.cc). */
void countNaiveTransform();

} // namespace sidewinder::dsp

#endif // SIDEWINDER_DSP_FFT_PLAN_H
