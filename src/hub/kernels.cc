/**
 * @file
 * Kernel implementations for the standardized algorithm set. Every
 * entry of il::standardAlgorithms() has a kernel here; a static
 * registry test asserts the two stay in sync.
 */

#include "hub/kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/filters.h"
#include "dsp/goertzel.h"
#include "dsp/peaks.h"
#include "dsp/q15.h"
#include "dsp/threshold.h"
#include "dsp/window.h"
#include "support/error.h"

namespace sidewinder::hub {

namespace {

constexpr std::uint8_t kWaveIdle =
    static_cast<std::uint8_t>(WaveState::Idle);
constexpr std::uint8_t kWaveBlocked =
    static_cast<std::uint8_t>(WaveState::Blocked);
constexpr std::uint8_t kWaveEmitted =
    static_cast<std::uint8_t>(WaveState::Emitted);

/** Did this input emit on wave @p w? (Channels always emit.) */
inline bool
inputPresent(const BlockInput &in, std::size_t w)
{
    return in.states == nullptr || in.states[w] == kWaveEmitted;
}

/**
 * Shared skeleton for single-input scalar-to-scalar streaming kernels
 * (AllInputs policy, so RunPartial never occurs): @p step consumes one
 * sample and either writes the output scalar (returning true) or
 * produces nothing, in which case the wave lands in @p miss_state
 * (Idle for accumulators, Blocked for admission control).
 */
template <typename Step>
inline void
runScalarBlock(const BlockInput &in, const BlockFire *fire,
               std::size_t count, const BlockOutput &out,
               std::uint8_t miss_state, Step step)
{
    if (fire == nullptr) {
        // Dense fast path: every wave fires, no per-wave branching on
        // engine decisions — the loop the compiler can pipeline.
        for (std::size_t w = 0; w < count; ++w)
            out.states[w] = step(in.scalars[w], out.scalars[w])
                                ? kWaveEmitted
                                : miss_state;
        return;
    }
    for (std::size_t w = 0; w < count; ++w) {
        const BlockFire decision = fire[w];
        if (decision == BlockFire::SkipIdle)
            out.states[w] = kWaveIdle;
        else if (decision == BlockFire::SkipBlocked)
            out.states[w] = kWaveBlocked;
        else
            out.states[w] = step(in.scalars[w], out.scalars[w])
                                ? kWaveEmitted
                                : miss_state;
    }
}

/**
 * True when @p fire holds a RunPartial wave, which only AnyInput and
 * ObserveBlocks nodes produce: an AllInputs kernel meeting one is run
 * by the reference fallback instead.
 */
inline bool
hasPartialFiring(const BlockFire *fire, std::size_t count)
{
    return fire != nullptr &&
           std::memchr(fire, static_cast<int>(BlockFire::RunPartial),
                       count) != nullptr;
}

/**
 * Block skeleton of an always-emitting AllInputs kernel: every wave
 * that fires (all of them when @p fire is null) runs @p run(w), which
 * writes the wave's result, and lands Emitted; a skipped wave lands in
 * its decision's state (SkipIdle = Idle, SkipBlocked = Blocked). The
 * lane must hold no RunPartial.
 */
template <typename Run>
inline void
runFiringWaves(const BlockFire *fire, std::size_t count,
               const BlockOutput &out, Run run)
{
    for (std::size_t w = 0; w < count; ++w) {
        const BlockFire decision = fire ? fire[w] : BlockFire::RunAll;
        if (decision != BlockFire::RunAll) {
            out.states[w] = static_cast<std::uint8_t>(decision);
            continue;
        }
        run(w);
        out.states[w] = kWaveEmitted;
    }
}

/** As runScalarBlock, for frame-emitting kernels (window). */
template <typename Step>
inline void
runScalarToFrameBlock(const BlockInput &in, const BlockFire *fire,
                      std::size_t count, const BlockOutput &out,
                      Step step)
{
    if (fire == nullptr) {
        for (std::size_t w = 0; w < count; ++w)
            out.states[w] = step(in.scalars[w], out.boxed[w])
                                ? kWaveEmitted
                                : kWaveIdle;
        return;
    }
    for (std::size_t w = 0; w < count; ++w) {
        const BlockFire decision = fire[w];
        if (decision == BlockFire::SkipIdle)
            out.states[w] = kWaveIdle;
        else if (decision == BlockFire::SkipBlocked)
            out.states[w] = kWaveBlocked;
        else
            out.states[w] = step(in.scalars[w], out.boxed[w])
                                ? kWaveEmitted
                                : kWaveIdle;
    }
}

} // namespace

void
Kernel::invokeBlock(const std::vector<BlockInput> &inputs,
                    const BlockFire *fire, std::size_t count,
                    const BlockOutput &out)
{
    // Reference fallback: replay the per-sample invokeInto() path wave
    // by wave, boxing scalar lanes into temporary Values and patching
    // nulls for partial firings — bit-identical to the per-sample wave
    // loop for any kernel, at per-sample cost. The boxes are per-thread
    // scratch (engines on different threads run kernels concurrently),
    // so a steady-state call allocates nothing.
    thread_local std::vector<Value> boxed_scalars;
    thread_local std::vector<const Value *> ptrs;
    boxed_scalars.resize(inputs.size());
    ptrs.resize(inputs.size());
    const bool rejects = conditional();
    Value scalar_out;
    for (std::size_t w = 0; w < count; ++w) {
        const BlockFire decision = fire ? fire[w] : BlockFire::RunAll;
        if (decision == BlockFire::SkipIdle) {
            out.states[w] = kWaveIdle;
            continue;
        }
        if (decision == BlockFire::SkipBlocked) {
            out.states[w] = kWaveBlocked;
            continue;
        }
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            const BlockInput &in = inputs[k];
            if (decision == BlockFire::RunPartial &&
                !inputPresent(in, w)) {
                ptrs[k] = nullptr;
            } else if (in.boxed != nullptr) {
                ptrs[k] = &in.boxed[w];
            } else {
                boxed_scalars[k] = Value(in.scalars[w]);
                ptrs[k] = &boxed_scalars[k];
            }
        }
        Value &dest = out.boxed != nullptr ? out.boxed[w] : scalar_out;
        const bool ok = invokeInto(ptrs, dest);
        if (ok && out.scalars != nullptr)
            out.scalars[w] = dest.scalar();
        out.states[w] = ok ? kWaveEmitted
                           : (rejects ? kWaveBlocked : kWaveIdle);
    }
}

void
Kernel::invokeWaves(const std::vector<BlockInput> &inputs,
                    const std::uint32_t *waves, std::size_t n,
                    const BlockOutput &out)
{
    thread_local std::vector<BlockInput> slice;
    slice.resize(inputs.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t w = waves[i];
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            BlockInput view = inputs[k];
            if (view.states != nullptr)
                view.states += w;
            if (view.scalars != nullptr)
                view.scalars += w;
            if (view.boxed != nullptr)
                view.boxed += w;
            slice[k] = view;
        }
        BlockOutput one;
        one.states = out.states + w;
        one.scalars = out.scalars != nullptr ? out.scalars + w : nullptr;
        one.boxed = out.boxed != nullptr ? out.boxed + w : nullptr;
        invokeBlock(slice, nullptr, 1, one);
    }
}

namespace {

/**
 * Base of the single-input scalar-to-scalar streaming kernels.
 * @p Derived supplies its whole scalar state through `State &state()`
 * and `static bool step(State &, double x, double &y)`, which consumes
 * one sample and either writes the output (true) or produces nothing,
 * landing the wave in @p MissState — Idle for accumulators, Blocked for
 * admission control. The per-sample and block paths run the same step,
 * so they cannot drift apart.
 */
template <typename Derived, std::uint8_t MissState>
class ScalarStepKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        double y = 0.0;
        if (!Derived::step(self().state(), inputs[0]->scalar(), y))
            return false;
        out = Value(y);
        return true;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        auto &state = self().state();
        using State = std::remove_reference_t<decltype(state)>;
        if constexpr (std::is_trivially_copyable_v<State>) {
            // Step a local copy and store it back once: out.states is
            // a byte lane, and a byte store may alias any field reached
            // through `this`, so stepping the member in place would
            // reload and re-store every field of it on every wave.
            State local = state;
            runScalarBlock(inputs[0], fire, count, out, MissState,
                           [&local](double x, double &y) {
                               return Derived::step(local, x, y);
                           });
            state = local;
        } else {
            runScalarBlock(inputs[0], fire, count, out, MissState,
                           [&state](double x, double &y) {
                               return Derived::step(state, x, y);
                           });
        }
    }

    void invokeWaves(const std::vector<BlockInput> &inputs,
                     const std::uint32_t *waves, std::size_t n,
                     const BlockOutput &out) override
    {
        auto &state = self().state();
        const double *in = inputs[0].scalars;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t w = waves[i];
            out.states[w] = Derived::step(state, in[w], out.scalars[w])
                                ? kWaveEmitted
                                : MissState;
        }
    }

    bool conditional() const override { return MissState == kWaveBlocked; }

  private:
    Derived &self() { return static_cast<Derived &>(*this); }
};

/** movingAvg(n): scalar noise reduction. */
class MovingAvgKernel : public ScalarStepKernel<MovingAvgKernel, kWaveIdle>
{
  public:
    explicit MovingAvgKernel(std::size_t n) : filter(n) {}

    dsp::MovingAverage::Cursor &state() { return filter.cursor(); }

    static bool
    step(dsp::MovingAverage::Cursor &cursor, double x, double &y)
    {
        return cursor.step(x, y);
    }

    void reset() override { filter.reset(); }

  private:
    dsp::MovingAverage filter;
};

/** expMovingAvg(alpha). */
class ExpMovingAvgKernel
    : public ScalarStepKernel<ExpMovingAvgKernel, kWaveIdle>
{
  public:
    explicit ExpMovingAvgKernel(double alpha) : filter(alpha) {}

    dsp::ExponentialMovingAverage &state() { return filter; }

    static bool
    step(dsp::ExponentialMovingAverage &ema, double x, double &y)
    {
        y = ema.push(x);
        return true;
    }

    void reset() override { filter.reset(); }

  private:
    dsp::ExponentialMovingAverage filter;
};

/** window(size[, hamming[, hop]]): scalar stream -> frames. */
class WindowKernel : public Kernel
{
  public:
    WindowKernel(std::size_t size, bool hamming, std::size_t hop)
        : partitioner(size,
                      hamming ? dsp::WindowType::Hamming
                              : dsp::WindowType::Rectangular,
                      hop)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        return partitioner.pushInto(inputs[0]->scalar(),
                                    out.frameStorage());
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        if (fire == nullptr) {
            // Dense lane: bulk-append the quiet stretch between frame
            // completions (a contiguous insert, not one push per
            // wave), and run the per-sample path only on the wave
            // that completes a frame — identical resulting state.
            const double *lane = inputs[0].scalars;
            std::size_t w = 0;
            while (w < count) {
                const std::size_t quiet = std::min(
                    partitioner.remainingToFrame() - 1, count - w);
                if (quiet != 0) {
                    partitioner.appendPartial(lane + w, quiet);
                    std::memset(out.states + w, kWaveIdle, quiet);
                    w += quiet;
                }
                if (w == count)
                    break;
                out.states[w] =
                    partitioner.pushInto(lane[w],
                                         out.boxed[w].frameStorage())
                        ? kWaveEmitted
                        : kWaveIdle;
                ++w;
            }
            return;
        }
        runScalarToFrameBlock(
            inputs[0], fire, count, out, [this](double x, Value &frame) {
                return partitioner.pushInto(x, frame.frameStorage());
            });
    }

    void reset() override { partitioner.reset(); }

  private:
    dsp::WindowPartitioner partitioner;
};

/** fft: real frame -> complex spectrum (planned real transform). */
class FftKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &frame = inputs[0]->frame();
        if (!plan || plan->size() != frame.size())
            plan = dsp::FftPlan::forSize(frame.size());
        plan->forwardReal(frame, out.complexFrameStorage());
        return true;
    }

  private:
    std::shared_ptr<const dsp::FftPlan> plan;
};

/** ifft: complex spectrum -> real frame. */
class IfftKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &bins = inputs[0]->complexFrame();
        if (!plan || plan->size() != bins.size())
            plan = dsp::FftPlan::forSize(bins.size());
        // General spectra need not be conjugate-symmetric, so run the
        // full inverse on a per-node scratch copy and keep the real parts.
        scratch.assign(bins.begin(), bins.end());
        plan->inverse(scratch.data());
        auto &frame = out.frameStorage();
        frame.resize(scratch.size());
        for (std::size_t i = 0; i < scratch.size(); ++i)
            frame[i] = scratch[i].real();
        return true;
    }

  private:
    std::shared_ptr<const dsp::FftPlan> plan;
    std::vector<dsp::Complex> scratch;
};

/** spectrum: complex bins -> magnitudes of the non-redundant half. */
class SpectrumKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &bins = inputs[0]->complexFrame();
        auto &mags = out.frameStorage();
        mags.resize(bins.empty() ? 0 : bins.size() / 2 + 1);
        dsp::magnitudesInto(bins.data(), mags.size(), mags.data());
        return true;
    }
};

/** lowPass / highPass (FFT block filter on frames). */
class BlockFilterKernel : public Kernel
{
  public:
    BlockFilterKernel(dsp::PassBand band, double cutoff_hz,
                      double sample_rate_hz)
        : filter(band, cutoff_hz, sample_rate_hz)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        filter.applyInto(inputs[0]->frame(), out.frameStorage());
        return true;
    }

  private:
    dsp::FftBlockFilter filter;
};

/** vectorMagnitude over 1..8 scalar branches. */
class VectorMagnitudeKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        // Euclidean magnitude: squares summed in input order, then
        // the root.
        double sum = 0.0;
        for (const Value *v : inputs)
            sum += v->scalar() * v->scalar();
        out = Value(std::sqrt(sum));
        return true;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        if (hasPartialFiring(fire, count)) {
            Kernel::invokeBlock(inputs, fire, count, out);
            return;
        }
        runFiringWaves(fire, count, out, [&](std::size_t w) {
            out.scalars[w] = magnitudeAt(inputs, w);
        });
    }

    void invokeWaves(const std::vector<BlockInput> &inputs,
                     const std::uint32_t *waves, std::size_t n,
                     const BlockOutput &out) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            out.scalars[waves[i]] = magnitudeAt(inputs, waves[i]);
            out.states[waves[i]] = kWaveEmitted;
        }
    }

  private:
    static double
    magnitudeAt(const std::vector<BlockInput> &inputs, std::size_t w)
    {
        double sum = 0.0;
        for (const BlockInput &in : inputs)
            sum += in.scalars[w] * in.scalars[w];
        return std::sqrt(sum);
    }
};

/** Frame -> scalar reducers (zcr, statistics). */
class ReducerKernel : public Kernel
{
  public:
    using Fn = double (*)(const std::vector<double> &);
    /** fn over equal-length frames at once (dsp::meanOfFrames, ...). */
    using BatchFn = void (*)(const double *const *frames, std::size_t k,
                             std::size_t n, double *out);

    explicit ReducerKernel(Fn fn, BatchFn batch = nullptr)
        : fn(fn), batch(batch)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        out = Value(fn(inputs[0]->frame()));
        return true;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        const BlockInput &in = inputs[0];
        for (std::size_t w = 0; w < count; ++w) {
            const BlockFire decision =
                fire ? fire[w] : BlockFire::RunAll;
            if (decision == BlockFire::SkipIdle)
                out.states[w] = kWaveIdle;
            else if (decision == BlockFire::SkipBlocked)
                out.states[w] = kWaveBlocked;
            else {
                out.scalars[w] = fn(in.boxed[w].frame());
                out.states[w] = kWaveEmitted;
            }
        }
    }

    void invokeWaves(const std::vector<BlockInput> &inputs,
                     const std::uint32_t *waves, std::size_t n,
                     const BlockOutput &out) override
    {
        const Value *frames = inputs[0].boxed;
        std::size_t i = 0;
        while (i < n) {
            // Up to dsp::kFrameBatch firings of one frame length go
            // through the batched reducer together.
            const std::vector<double> &first = frames[waves[i]].frame();
            const double *data[dsp::kFrameBatch];
            double results[dsp::kFrameBatch];
            std::size_t k = 0;
            if (batch != nullptr) {
                while (i + k < n && k < dsp::kFrameBatch) {
                    const auto &frame = frames[waves[i + k]].frame();
                    if (frame.size() != first.size())
                        break;
                    data[k++] = frame.data();
                }
                batch(data, k, first.size(), results);
            } else {
                results[k++] = fn(first);
            }
            for (std::size_t j = 0; j < k; ++j) {
                const std::size_t w = waves[i + j];
                out.scalars[w] = results[j];
                out.states[w] = kWaveEmitted;
            }
            i += k;
        }
    }

  private:
    Fn fn;
    BatchFn batch;
};

/** Spectral features over a magnitude-spectrum frame. */
class SpectralFeatureKernel : public Kernel
{
  public:
    enum class Feature { FrequencyHz, Magnitude, PeakToMeanRatio };

    SpectralFeatureKernel(Feature feature, std::size_t fft_size,
                          double base_rate_hz)
        : feature(feature), fftSize(fft_size), baseRateHz(base_rate_hz)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto dom = dsp::dominantFrequency(inputs[0]->frame());
        switch (feature) {
          case Feature::FrequencyHz:
            out = Value(
                dsp::binFrequencyHz(dom.bin, fftSize, baseRateHz));
            return true;
          case Feature::Magnitude:
            out = Value(dom.magnitude);
            return true;
          case Feature::PeakToMeanRatio:
            out = Value(dom.peakToMeanRatio());
            return true;
        }
        return false;
    }

  private:
    Feature feature;
    std::size_t fftSize;
    double baseRateHz;
};

/** Single-bin spectral probe (Goertzel). */
class GoertzelKernel : public Kernel
{
  public:
    GoertzelKernel(double target_hz, double base_rate_hz,
                   bool relative)
        : targetHz(target_hz), baseRateHz(base_rate_hz),
          relative(relative)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &frame = inputs[0]->frame();
        out = Value(relative ? dsp::goertzelRelative(frame, targetHz,
                                                     baseRateHz)
                             : dsp::goertzelMagnitude(frame, targetHz,
                                                      baseRateHz));
        return true;
    }

  private:
    double targetHz;
    double baseRateHz;
    bool relative;
};

/** Admission control: forwards only admitted values. */
class ThresholdKernel
    : public ScalarStepKernel<ThresholdKernel, kWaveBlocked>
{
  public:
    explicit ThresholdKernel(dsp::Threshold threshold)
        : threshold(threshold)
    {}

    dsp::Threshold &state() { return threshold; }

    static bool
    step(const dsp::Threshold &t, double x, double &y)
    {
        if (!t.admits(x))
            return false;
        y = x;
        return true;
    }

  private:
    dsp::Threshold threshold;
};

/** localMaxima / localMinima streaming peak detection. */
class PeakKernel : public ScalarStepKernel<PeakKernel, kWaveIdle>
{
  public:
    PeakKernel(dsp::PeakPolarity polarity, double low, double high,
               std::size_t refractory)
        : detector(polarity, low, high, refractory)
    {}

    dsp::PeakDetector &state() { return detector; }

    static bool
    step(dsp::PeakDetector &peaks, double x, double &y)
    {
        return peaks.step(x, y);
    }

    void reset() override { detector.reset(); }

  private:
    dsp::PeakDetector detector;
};

/**
 * and: fires only when all (conditional) branches fired this wave
 * (the AllInputs policy), forwarding the first branch's value.
 */
class AndKernel : public ScalarStepKernel<AndKernel, kWaveIdle>
{
  public:
    /** Stateless: the first branch's value passes through. */
    struct Forward
    {};

    Forward &state() { return forward; }

    static bool
    step(Forward &, double x, double &y)
    {
        y = x;
        return true;
    }

  private:
    Forward forward;
};

/** or: fires when any branch fired; forwards the first present one. */
class OrKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        for (const Value *v : inputs) {
            if (v != nullptr) {
                out = Value(v->scalar());
                return true;
            }
        }
        return false;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        for (std::size_t w = 0; w < count; ++w) {
            const BlockFire decision =
                fire ? fire[w] : BlockFire::RunAll;
            if (decision == BlockFire::SkipIdle) {
                out.states[w] = kWaveIdle;
                continue;
            }
            if (decision == BlockFire::SkipBlocked) {
                out.states[w] = kWaveBlocked;
                continue;
            }
            out.states[w] = kWaveIdle;
            for (const BlockInput &in : inputs) {
                if (decision == BlockFire::RunAll ||
                    inputPresent(in, w)) {
                    out.scalars[w] = in.scalars[w];
                    out.states[w] = kWaveEmitted;
                    break;
                }
            }
        }
    }

    FiringPolicy firingPolicy() const override
    {
        return FiringPolicy::AnyInput;
    }
};

/**
 * consecutive(m): fires when its input has produced a result in m
 * consecutive upstream firings; a miss resets the count. While the
 * condition stays true it re-fires at every further multiple of m, so
 * a sustained event (a long siren, a whole song) keeps re-asserting
 * the wake-up instead of firing once and going silent — the main CPU
 * stays awake for as long as the event lasts.
 */
class ConsecutiveKernel : public Kernel
{
  public:
    explicit ConsecutiveKernel(std::size_t required)
        : required(required)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        if (inputs[0] == nullptr) {
            count = 0;
            return false;
        }
        ++count;
        if (count < required || count % required != 0)
            return false;
        out = Value(inputs[0]->scalar());
        return true;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t waves,
                     const BlockOutput &out) override
    {
        const BlockInput &in = inputs[0];
        for (std::size_t w = 0; w < waves; ++w) {
            const BlockFire decision =
                fire ? fire[w] : BlockFire::RunAll;
            if (decision == BlockFire::SkipIdle) {
                out.states[w] = kWaveIdle;
                continue;
            }
            if (decision == BlockFire::SkipBlocked) {
                out.states[w] = kWaveBlocked;
                continue;
            }
            // RunPartial on the single input means it blocked this
            // wave: an observed miss resets the streak.
            if (decision == BlockFire::RunPartial &&
                !inputPresent(in, w)) {
                count = 0;
                out.states[w] = kWaveBlocked;
                continue;
            }
            ++count;
            if (count >= required && count % required == 0) {
                out.scalars[w] = in.scalars[w];
                out.states[w] = kWaveEmitted;
            } else {
                out.states[w] = kWaveBlocked;
            }
        }
    }

    void reset() override { count = 0; }

    FiringPolicy firingPolicy() const override
    {
        return FiringPolicy::ObserveBlocks;
    }

    bool conditional() const override { return true; }

  private:
    std::size_t required;
    std::size_t count = 0;
};

// ---------------------------------------------------------------------
// Q15 fixed-point variants (KernelMode::FixedQ15): the numeric kernels
// quantize to the MCU's 16-bit sample format, compute with saturating
// integer arithmetic (dsp/q15.h), and dequantize results — so the
// Values flowing between nodes stay doubles, but every one of them
// lies exactly on the Q15 grid the firmware would produce. Kernels
// whose behavior is already grid-exact on such inputs (logic, peaks,
// spectral features over compensated magnitudes) are shared with the
// float set.

/** movingAvg(n) on Q15 samples with a 32-bit running sum. */
class Q15MovingAvgKernel
    : public ScalarStepKernel<Q15MovingAvgKernel, kWaveIdle>
{
  public:
    explicit Q15MovingAvgKernel(std::size_t n) : filter(n) {}

    dsp::Q15MovingAverage &state() { return filter; }

    static bool
    step(dsp::Q15MovingAverage &average, double x, double &y)
    {
        const auto r = average.push(dsp::toQ15(x));
        if (!r)
            return false;
        y = dsp::fromQ15(*r);
        return true;
    }

    void reset() override { filter.reset(); }

  private:
    dsp::Q15MovingAverage filter;
};

/** expMovingAvg(alpha) in Q15. */
class Q15ExpMovingAvgKernel
    : public ScalarStepKernel<Q15ExpMovingAvgKernel, kWaveIdle>
{
  public:
    explicit Q15ExpMovingAvgKernel(double alpha) : filter(alpha) {}

    dsp::Q15ExponentialMovingAverage &state() { return filter; }

    static bool
    step(dsp::Q15ExponentialMovingAverage &ema, double x, double &y)
    {
        y = dsp::fromQ15(ema.push(dsp::toQ15(x)));
        return true;
    }

    void reset() override { filter.reset(); }

  private:
    dsp::Q15ExponentialMovingAverage filter;
};

/**
 * window(size[, hamming[, hop]]) storing Q15 samples — exactly the
 * 2 bytes per retained sample that il::nodeRamBytes charges. Hamming
 * coefficients are quantized once; the taper multiply is q15Mul.
 * Emitted frames are the dequantized Q15 products.
 */
class Q15WindowKernel : public Kernel
{
  public:
    Q15WindowKernel(std::size_t size, bool hamming, std::size_t hop)
        : frameSize(size), hopSize(hop == 0 ? size : hop)
    {
        if (frameSize == 0)
            throw ConfigError("window size must be positive");
        if (hopSize == 0 || hopSize > frameSize)
            throw ConfigError("window hop must be in [1, size]");
        pending.reserve(frameSize);
        if (hamming) {
            coefficients.resize(frameSize);
            for (std::size_t i = 0; i < frameSize; ++i)
                coefficients[i] =
                    dsp::toQ15(dsp::hammingCoefficient(i, frameSize));
        }
    }

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        return push(dsp::toQ15(inputs[0]->scalar()),
                    out.frameStorage());
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        runScalarToFrameBlock(
            inputs[0], fire, count, out, [this](double x, Value &frame) {
                return push(dsp::toQ15(x), frame.frameStorage());
            });
    }

    void reset() override { pending.clear(); }

  private:
    bool
    push(dsp::Q15 sample, std::vector<double> &frame)
    {
        pending.push_back(sample);
        if (pending.size() < frameSize)
            return false;
        frame.resize(frameSize);
        if (coefficients.empty()) {
            for (std::size_t i = 0; i < frameSize; ++i)
                frame[i] = dsp::fromQ15(pending[i]);
        } else {
            for (std::size_t i = 0; i < frameSize; ++i)
                frame[i] = dsp::fromQ15(
                    dsp::q15Mul(pending[i], coefficients[i]));
        }
        pending.erase(pending.begin(),
                      pending.begin() +
                          static_cast<std::ptrdiff_t>(hopSize));
        return true;
    }

    std::size_t frameSize;
    std::size_t hopSize;
    std::vector<dsp::Q15> pending;
    std::vector<dsp::Q15> coefficients;
};

/** fft in Q15: forward transform scaled by 1/N (see Q15FftPlan). */
class Q15FftKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &frame = inputs[0]->frame();
        const std::size_t n = frame.size();
        if (!plan || plan->size() != n)
            plan = dsp::Q15FftPlan::forSize(n);
        re.resize(n);
        im.assign(n, 0);
        dsp::quantizeQ15(frame.data(), re.data(), n);
        plan->forward(re.data(), im.data());
        auto &bins = out.complexFrameStorage();
        bins.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            bins[i] = dsp::Complex(dsp::fromQ15(re[i]),
                                   dsp::fromQ15(im[i]));
        return true;
    }

  private:
    std::shared_ptr<const dsp::Q15FftPlan> plan;
    std::vector<dsp::Q15> re;
    std::vector<dsp::Q15> im;
};

/** ifft in Q15: unscaled inverse of the 1/N-scaled forward. */
class Q15IfftKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &bins = inputs[0]->complexFrame();
        const std::size_t n = bins.size();
        if (!plan || plan->size() != n)
            plan = dsp::Q15FftPlan::forSize(n);
        re.resize(n);
        im.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            re[i] = dsp::toQ15(bins[i].real());
            im[i] = dsp::toQ15(bins[i].imag());
        }
        plan->inverse(re.data(), im.data());
        auto &frame = out.frameStorage();
        frame.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            frame[i] = dsp::fromQ15(re[i]);
        return true;
    }

  private:
    std::shared_ptr<const dsp::Q15FftPlan> plan;
    std::vector<dsp::Q15> re;
    std::vector<dsp::Q15> im;
};

/**
 * spectrum over Q15 FFT bins: multiplies the magnitudes by N to undo
 * the forward transform's 1/N block scaling, so downstream features
 * and thresholds see magnitudes on the same scale as the float
 * pipeline. The magnitude square root is the one floating step.
 */
class Q15SpectrumKernel : public SpectrumKernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        SpectrumKernel::invokeInto(inputs, out);
        const double scale =
            static_cast<double>(inputs[0]->complexFrame().size());
        for (double &mag : out.frameStorage())
            mag *= scale;
        return true;
    }
};

/**
 * lowPass / highPass in Q15: the same FFT block filter shape as the
 * float kernel, run through the fixed-point transform — forward
 * (scaled 1/N), zero the stop band, unscaled inverse restores the
 * time-domain scale.
 */
class Q15BlockFilterKernel : public Kernel
{
  public:
    Q15BlockFilterKernel(dsp::PassBand band, double cutoff_hz,
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

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &frame = inputs[0]->frame();
        const std::size_t n = frame.size();
        if (!plan || plan->size() != n)
            plan = dsp::Q15FftPlan::forSize(n);
        re.resize(n);
        im.assign(n, 0);
        dsp::quantizeQ15(frame.data(), re.data(), n);
        plan->forward(re.data(), im.data());

        // Zero the stop band, mirroring FftBlockFilter: bin i and its
        // conjugate mirror n-i carry the same frequency.
        for (std::size_t i = 0; i <= n / 2; ++i) {
            const double freq = dsp::binFrequencyHz(i, n, sampleRate);
            const bool keep = direction == dsp::PassBand::LowPass
                                  ? freq <= cutoff
                                  : freq >= cutoff;
            if (!keep) {
                re[i] = 0;
                im[i] = 0;
                if (i != 0 && i != n / 2) {
                    re[n - i] = 0;
                    im[n - i] = 0;
                }
            }
        }

        plan->inverse(re.data(), im.data());
        auto &filtered = out.frameStorage();
        filtered.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            filtered[i] = dsp::fromQ15(re[i]);
        return true;
    }

  private:
    dsp::PassBand direction;
    double cutoff;
    double sampleRate;
    std::shared_ptr<const dsp::Q15FftPlan> plan;
    std::vector<dsp::Q15> re;
    std::vector<dsp::Q15> im;
};

/** vectorMagnitude with a 64-bit integer sum of Q15 squares. */
class Q15VectorMagnitudeKernel : public Kernel
{
  public:
    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        std::int64_t sum = 0;
        for (const Value *v : inputs) {
            const std::int32_t q = dsp::toQ15(v->scalar());
            sum += static_cast<std::int64_t>(q) * q;
        }
        out = Value(std::sqrt(static_cast<double>(sum)) / dsp::kQ15One);
        return true;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        if (hasPartialFiring(fire, count)) {
            Kernel::invokeBlock(inputs, fire, count, out);
            return;
        }
        runFiringWaves(fire, count, out, [&](std::size_t w) {
            out.scalars[w] = magnitudeAt(inputs, w);
        });
    }

    void invokeWaves(const std::vector<BlockInput> &inputs,
                     const std::uint32_t *waves, std::size_t n,
                     const BlockOutput &out) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            out.scalars[waves[i]] = magnitudeAt(inputs, waves[i]);
            out.states[waves[i]] = kWaveEmitted;
        }
    }

  private:
    static double
    magnitudeAt(const std::vector<BlockInput> &inputs, std::size_t w)
    {
        std::int64_t sum = 0;
        for (const BlockInput &in : inputs) {
            const std::int32_t q = dsp::toQ15(in.scalars[w]);
            sum += static_cast<std::int64_t>(q) * q;
        }
        return std::sqrt(static_cast<double>(sum)) / dsp::kQ15One;
    }
};

/**
 * Frame reducers over quantized samples: integer accumulators
 * (16x16->64 MACs), one floating divide/sqrt at the end — the
 * firmware's shape for statistics on Q15 buffers.
 */
class Q15ReducerKernel : public Kernel
{
  public:
    enum class Op { Zcr, Mean, Variance, Stddev, Min, Max, Rms, Range };

    explicit Q15ReducerKernel(Op op) : op(op) {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        out = Value(reduce(inputs[0]->frame()));
        return true;
    }

    void invokeBlock(const std::vector<BlockInput> &inputs,
                     const BlockFire *fire, std::size_t count,
                     const BlockOutput &out) override
    {
        const BlockInput &in = inputs[0];
        for (std::size_t w = 0; w < count; ++w) {
            const BlockFire decision =
                fire ? fire[w] : BlockFire::RunAll;
            if (decision == BlockFire::SkipIdle)
                out.states[w] = kWaveIdle;
            else if (decision == BlockFire::SkipBlocked)
                out.states[w] = kWaveBlocked;
            else {
                out.scalars[w] = reduce(in.boxed[w].frame());
                out.states[w] = kWaveEmitted;
            }
        }
    }

  private:
    double
    reduce(const std::vector<double> &frame)
    {
        const std::size_t n = frame.size();
        scratch.resize(n);
        dsp::quantizeQ15(frame.data(), scratch.data(), n);
        switch (op) {
          case Op::Zcr: {
            if (n < 2)
                return 0.0;
            std::size_t crossings = 0;
            for (std::size_t i = 1; i < n; ++i)
                if ((scratch[i - 1] < 0) != (scratch[i] < 0))
                    ++crossings;
            return static_cast<double>(crossings) /
                   static_cast<double>(n - 1);
          }
          case Op::Mean: {
            if (n == 0)
                return 0.0;
            std::int64_t sum = 0;
            for (dsp::Q15 q : scratch)
                sum += q;
            return static_cast<double>(sum) /
                   (static_cast<double>(n) * dsp::kQ15One);
          }
          case Op::Variance:
          case Op::Stddev: {
            if (n < 2)
                return 0.0;
            std::int64_t sum = 0;
            std::int64_t sum_sq = 0;
            for (dsp::Q15 q : scratch) {
                sum += q;
                sum_sq += static_cast<std::int64_t>(q) * q;
            }
            // Population variance from the exact integer moments:
            // (E[x^2] - E[x]^2) in Q15^2 counts.
            const double nn = static_cast<double>(n);
            const double var =
                (static_cast<double>(sum_sq) -
                 static_cast<double>(sum) *
                     static_cast<double>(sum) / nn) /
                (nn * dsp::kQ15One * dsp::kQ15One);
            return op == Op::Variance ? std::max(var, 0.0)
                                      : std::sqrt(std::max(var, 0.0));
          }
          case Op::Min:
          case Op::Max:
          case Op::Range: {
            if (n == 0)
                throw ConfigError("reducer on empty frame");
            dsp::Q15 lo = scratch[0];
            dsp::Q15 hi = scratch[0];
            for (dsp::Q15 q : scratch) {
                lo = std::min(lo, q);
                hi = std::max(hi, q);
            }
            if (op == Op::Min)
                return dsp::fromQ15(lo);
            if (op == Op::Max)
                return dsp::fromQ15(hi);
            return dsp::fromQ15(hi) - dsp::fromQ15(lo);
          }
          case Op::Rms: {
            if (n == 0)
                return 0.0;
            std::int64_t sum_sq = 0;
            for (dsp::Q15 q : scratch)
                sum_sq += static_cast<std::int64_t>(q) * q;
            return std::sqrt(static_cast<double>(sum_sq) /
                             static_cast<double>(n)) /
                   dsp::kQ15One;
          }
        }
        return 0.0;
    }

    Op op;
    std::vector<dsp::Q15> scratch;
};

/** goertzel / goertzelRel with the widened fixed-point recurrence. */
class Q15GoertzelKernel : public Kernel
{
  public:
    Q15GoertzelKernel(double target_hz, double base_rate_hz,
                      bool relative)
        : targetHz(target_hz), baseRateHz(base_rate_hz),
          relative(relative)
    {}

    bool
    invokeInto(const std::vector<const Value *> &inputs,
               Value &out) override
    {
        const auto &frame = inputs[0]->frame();
        scratch.resize(frame.size());
        dsp::quantizeQ15(frame.data(), scratch.data(), frame.size());
        out = Value(relative
                        ? dsp::q15GoertzelRelative(
                              scratch.data(), scratch.size(), targetHz,
                              baseRateHz)
                        : dsp::q15GoertzelMagnitude(
                              scratch.data(), scratch.size(), targetHz,
                              baseRateHz));
        return true;
    }

  private:
    double targetHz;
    double baseRateHz;
    bool relative;
    std::vector<dsp::Q15> scratch;
};

/**
 * Threshold in Q15 mode. Limits within the Q15 range compare as
 * quantized integers (dsp::Q15Threshold) and forward the quantized
 * value; limits outside ±1 — frequencies in Hz, peak-to-mean ratios —
 * live in feature units the 16-bit firmware compares in a wider
 * format, so those fall back to the exact double comparison.
 */
class Q15ThresholdKernel
    : public ScalarStepKernel<Q15ThresholdKernel, kWaveBlocked>
{
  public:
    /** Both comparisons and which one applies. */
    struct Limits
    {
        dsp::Threshold ref;
        dsp::Q15Threshold q15;
        bool useQ15;
    };

    explicit Q15ThresholdKernel(dsp::Threshold threshold)
        : limits{threshold,
                 dsp::Q15Threshold(threshold.kind(),
                                   threshold.lowLimit(),
                                   threshold.highLimit()),
                 fitsQ15(threshold.lowLimit()) &&
                     fitsQ15(threshold.highLimit())}
    {}

    Limits &state() { return limits; }

    static bool
    step(const Limits &l, double x, double &y)
    {
        if (l.useQ15) {
            const dsp::Q15 q = dsp::toQ15(x);
            if (!l.q15.admits(q))
                return false;
            y = dsp::fromQ15(q);
            return true;
        }
        if (!l.ref.admits(x))
            return false;
        y = x;
        return true;
    }

  private:
    static bool
    fitsQ15(double v)
    {
        return v >= -1.0 && v < 1.0;
    }

    Limits limits;
};

} // namespace

namespace {

/**
 * Q15 variant dispatch; nullptr for algorithms shared between modes
 * (logic, peaks, spectral features — their inputs are already on the
 * Q15 grid or in compensated feature units, so the float kernel is
 * the fixed-point behavior).
 */
std::unique_ptr<Kernel>
makeQ15Kernel(const std::string &name, const std::vector<double> &p,
              const il::NodeStream &in)
{
    if (name == "movingAvg")
        return std::make_unique<Q15MovingAvgKernel>(
            static_cast<std::size_t>(p[0]));
    if (name == "expMovingAvg")
        return std::make_unique<Q15ExpMovingAvgKernel>(p[0]);
    if (name == "window") {
        const auto size = static_cast<std::size_t>(p[0]);
        const bool hamming = p.size() >= 2 && p[1] != 0.0;
        const auto hop =
            p.size() >= 3 ? static_cast<std::size_t>(p[2]) : size;
        return std::make_unique<Q15WindowKernel>(size, hamming, hop);
    }
    if (name == "fft")
        return std::make_unique<Q15FftKernel>();
    if (name == "ifft")
        return std::make_unique<Q15IfftKernel>();
    if (name == "spectrum")
        return std::make_unique<Q15SpectrumKernel>();
    if (name == "lowPass")
        return std::make_unique<Q15BlockFilterKernel>(
            dsp::PassBand::LowPass, p[0], in.baseRateHz);
    if (name == "highPass")
        return std::make_unique<Q15BlockFilterKernel>(
            dsp::PassBand::HighPass, p[0], in.baseRateHz);
    if (name == "goertzel")
        return std::make_unique<Q15GoertzelKernel>(p[0], in.baseRateHz,
                                                   false);
    if (name == "goertzelRel")
        return std::make_unique<Q15GoertzelKernel>(p[0], in.baseRateHz,
                                                   true);
    if (name == "vectorMagnitude")
        return std::make_unique<Q15VectorMagnitudeKernel>();
    if (name == "zcr")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Zcr);
    if (name == "mean")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Mean);
    if (name == "variance")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Variance);
    if (name == "stddev")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Stddev);
    if (name == "min")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Min);
    if (name == "max")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Max);
    if (name == "rms")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Rms);
    if (name == "range")
        return std::make_unique<Q15ReducerKernel>(
            Q15ReducerKernel::Op::Range);
    if (name == "minThreshold")
        return std::make_unique<Q15ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::Min, p[0]));
    if (name == "maxThreshold")
        return std::make_unique<Q15ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::Max, p[0]));
    if (name == "bandThreshold")
        return std::make_unique<Q15ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::Band, p[0], p[1]));
    if (name == "outsideBandThreshold")
        return std::make_unique<Q15ThresholdKernel>(dsp::Threshold(
            dsp::ThresholdKind::OutsideBand, p[0], p[1]));
    return nullptr;
}

} // namespace

std::unique_ptr<Kernel>
makeKernel(const std::string &name, const std::vector<double> &p,
           const std::vector<il::NodeStream> &inputStreams,
           KernelMode mode)
{
    const auto &in = inputStreams.front();

    if (mode == KernelMode::FixedQ15)
        if (auto kernel = makeQ15Kernel(name, p, in))
            return kernel;

    if (name == "movingAvg")
        return std::make_unique<MovingAvgKernel>(
            static_cast<std::size_t>(p[0]));
    if (name == "expMovingAvg")
        return std::make_unique<ExpMovingAvgKernel>(p[0]);
    if (name == "window") {
        const auto size = static_cast<std::size_t>(p[0]);
        const bool hamming = p.size() >= 2 && p[1] != 0.0;
        const auto hop =
            p.size() >= 3 ? static_cast<std::size_t>(p[2]) : size;
        return std::make_unique<WindowKernel>(size, hamming, hop);
    }
    if (name == "fft")
        return std::make_unique<FftKernel>();
    if (name == "ifft")
        return std::make_unique<IfftKernel>();
    if (name == "spectrum")
        return std::make_unique<SpectrumKernel>();
    if (name == "lowPass")
        return std::make_unique<BlockFilterKernel>(
            dsp::PassBand::LowPass, p[0], in.baseRateHz);
    if (name == "highPass")
        return std::make_unique<BlockFilterKernel>(
            dsp::PassBand::HighPass, p[0], in.baseRateHz);
    if (name == "goertzel")
        return std::make_unique<GoertzelKernel>(p[0], in.baseRateHz,
                                                false);
    if (name == "goertzelRel")
        return std::make_unique<GoertzelKernel>(p[0], in.baseRateHz,
                                                true);
    if (name == "vectorMagnitude")
        return std::make_unique<VectorMagnitudeKernel>();
    if (name == "zcr")
        return std::make_unique<ReducerKernel>(dsp::zeroCrossingRate);
    if (name == "mean")
        return std::make_unique<ReducerKernel>(dsp::mean,
                                               dsp::meanOfFrames);
    if (name == "variance")
        return std::make_unique<ReducerKernel>(dsp::variance,
                                               dsp::varianceOfFrames);
    if (name == "stddev")
        return std::make_unique<ReducerKernel>(dsp::stddev,
                                               dsp::stddevOfFrames);
    if (name == "min")
        return std::make_unique<ReducerKernel>(dsp::minimum);
    if (name == "max")
        return std::make_unique<ReducerKernel>(dsp::maximum);
    if (name == "rms")
        return std::make_unique<ReducerKernel>(
            dsp::rootMeanSquare, dsp::rootMeanSquareOfFrames);
    if (name == "range")
        return std::make_unique<ReducerKernel>(dsp::range);
    if (name == "dominantFreqHz")
        return std::make_unique<SpectralFeatureKernel>(
            SpectralFeatureKernel::Feature::FrequencyHz, in.fftSize,
            in.baseRateHz);
    if (name == "dominantFreqMag")
        return std::make_unique<SpectralFeatureKernel>(
            SpectralFeatureKernel::Feature::Magnitude, in.fftSize,
            in.baseRateHz);
    if (name == "peakToMeanRatio")
        return std::make_unique<SpectralFeatureKernel>(
            SpectralFeatureKernel::Feature::PeakToMeanRatio, in.fftSize,
            in.baseRateHz);
    if (name == "minThreshold")
        return std::make_unique<ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::Min, p[0]));
    if (name == "maxThreshold")
        return std::make_unique<ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::Max, p[0]));
    if (name == "bandThreshold")
        return std::make_unique<ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::Band, p[0], p[1]));
    if (name == "outsideBandThreshold")
        return std::make_unique<ThresholdKernel>(
            dsp::Threshold(dsp::ThresholdKind::OutsideBand, p[0], p[1]));
    if (name == "localMaxima" || name == "localMinima") {
        const auto refractory =
            p.size() >= 3 ? static_cast<std::size_t>(p[2]) : 0;
        return std::make_unique<PeakKernel>(
            name == "localMaxima" ? dsp::PeakPolarity::Maxima
                                  : dsp::PeakPolarity::Minima,
            p[0], p[1], refractory);
    }
    if (name == "and")
        return std::make_unique<AndKernel>();
    if (name == "or")
        return std::make_unique<OrKernel>();
    if (name == "consecutive")
        return std::make_unique<ConsecutiveKernel>(
            static_cast<std::size_t>(p[0]));

    throw ConfigError("no kernel registered for algorithm '" + name +
                      "'");
}

} // namespace sidewinder::hub
