/**
 * @file
 * Microbenchmarks of the platform algorithms and the hub interpreter
 * (google-benchmark). These ground the MCU sizing discussion of
 * Section 3.8: FFT-family kernels dominate, which is why the siren
 * detector outgrows the MSP430.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "bench_common.h"
#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/filters.h"
#include "dsp/peaks.h"
#include "dsp/threshold.h"
#include "dsp/window.h"
#include "hub/engine.h"
#include "il/analyze.h"
#include "il/analyze_range.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "reference/legacy_engine.h"
#include "sim/faults.h"
#include "sim/replay.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"
#include "transport/crc.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "transport/messages.h"

using namespace sidewinder;

namespace {

std::vector<double>
toneFrame(std::size_t n, double freq = 1000.0, double fs = 4000.0)
{
    std::vector<double> frame(n);
    for (std::size_t i = 0; i < n; ++i)
        frame[i] = std::sin(2.0 * std::numbers::pi * freq *
                            static_cast<double>(i) / fs);
    return frame;
}

/**
 * Attach planned-vs-naive transform counts and the heap-allocation
 * rate of the measured region to a benchmark's output.
 */
class DspCounterScope
{
  public:
    explicit DspCounterScope(benchmark::State &state)
        : state(state), before(dsp::fftCounters()),
          allocsBefore(bench::allocCount())
    {}

    ~DspCounterScope()
    {
        const auto after = dsp::fftCounters();
        const double iters =
            static_cast<double>(std::max<std::int64_t>(
                state.iterations(), 1));
        state.counters["planned/iter"] = static_cast<double>(
            (after.plannedTransforms - before.plannedTransforms) +
            (after.plannedRealTransforms -
             before.plannedRealTransforms)) / iters;
        state.counters["naive/iter"] = static_cast<double>(
            after.naiveTransforms - before.naiveTransforms) / iters;
        state.counters["allocs/iter"] = static_cast<double>(
            bench::allocCount() - allocsBefore) / iters;
    }

  private:
    benchmark::State &state;
    dsp::FftCounters before;
    std::uint64_t allocsBefore;
};

/**
 * Pre-PR baseline: the naive full-complex transform with a freshly
 * allocated buffer per frame, exactly what dsp::fftReal() did before
 * the planned path landed. The BM_FftReal speedup is measured against
 * this in BENCH_dsp.json.
 */
void
BM_FftRealNaive(benchmark::State &state)
{
    const auto frame = toneFrame(static_cast<std::size_t>(state.range(0)));
    DspCounterScope counters(state);
    for (auto _ : state) {
        std::vector<dsp::Complex> data(frame.begin(), frame.end());
        dsp::naiveFft(data);
        benchmark::DoNotOptimize(data);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
// Median of five: the numerator of planned_fft_vs_naive in
// scripts/bench_budgets.json, which gates on the medians.
BENCHMARK(BM_FftRealNaive)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void
BM_FftReal(benchmark::State &state)
{
    const auto frame = toneFrame(static_cast<std::size_t>(state.range(0)));
    dsp::fftReal(frame); // warm the plan cache outside the timed loop
    DspCounterScope counters(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(dsp::fftReal(frame));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
// Median of five: the denominator of planned_fft_vs_naive.
BENCHMARK(BM_FftReal)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

/**
 * The fully planned path the hub kernels run: held plan, reused
 * output buffer. allocs/iter must be 0 — this is the zero-allocation
 * acceptance check.
 */
void
BM_FftPlanReal(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto frame = toneFrame(n);
    const auto plan = dsp::FftPlan::forSize(n);
    std::vector<dsp::Complex> spectrum(n);
    plan->forwardReal(frame.data(), spectrum.data()); // warm-up
    DspCounterScope counters(state);
    for (auto _ : state) {
        plan->forwardReal(frame.data(), spectrum.data());
        benchmark::DoNotOptimize(spectrum.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftPlanReal)->RangeMultiplier(4)->Range(64, 4096);

/** Planned real round trip (forwardReal + inverseReal), zero-alloc. */
void
BM_FftPlanRealRoundTrip(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto frame = toneFrame(n);
    const auto plan = dsp::FftPlan::forSize(n);
    std::vector<dsp::Complex> spectrum(n);
    std::vector<double> restored(n);
    DspCounterScope counters(state);
    for (auto _ : state) {
        plan->forwardReal(frame.data(), spectrum.data());
        plan->inverseReal(spectrum.data(), restored.data());
        benchmark::DoNotOptimize(restored.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftPlanRealRoundTrip)->RangeMultiplier(4)->Range(64, 4096);

void
BM_FftBlockFilter(benchmark::State &state)
{
    const auto frame = toneFrame(static_cast<std::size_t>(state.range(0)));
    const dsp::FftBlockFilter filter(dsp::PassBand::HighPass, 750.0,
                                     4000.0);
    DspCounterScope counters(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(filter.apply(frame));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftBlockFilter)->RangeMultiplier(4)->Range(64, 4096);

/** Block filter into a reused output frame (the hub kernel path). */
void
BM_FftBlockFilterInto(benchmark::State &state)
{
    const auto frame = toneFrame(static_cast<std::size_t>(state.range(0)));
    const dsp::FftBlockFilter filter(dsp::PassBand::HighPass, 750.0,
                                     4000.0);
    std::vector<double> out;
    filter.applyInto(frame, out); // warm plan and scratch
    DspCounterScope counters(state);
    for (auto _ : state) {
        filter.applyInto(frame, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftBlockFilterInto)->RangeMultiplier(4)->Range(64, 4096);

/** A generated 60 s office audio trace, built once. */
const trace::Trace &
officeAudioTrace()
{
    static const trace::Trace trace = [] {
        trace::AudioTraceConfig config;
        config.environment = trace::AudioEnvironment::Office;
        config.durationSeconds = 60.0;
        config.seed = 20160402;
        return trace::generateAudioTrace(config);
    }();
    return trace;
}

/**
 * One main-CPU audio classifier over the whole 60 s office trace: the
 * phone-side work Table 2 does per awake window. planned/iter counts
 * the transforms of one classify call (siren runs three real FFTs
 * per frame, music and phrase one).
 */
void
BM_AudioClassify(benchmark::State &state,
                 std::unique_ptr<apps::Application> (*make)())
{
    const auto app = make();
    const auto &trace = officeAudioTrace();
    app->classify(trace, 0, trace.sampleCount()); // warm the plan cache
    DspCounterScope scope(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            app->classify(trace, 0, trace.sampleCount()));
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trace.sampleCount()));
}
BENCHMARK_CAPTURE(BM_AudioClassify, siren, &apps::makeSirenApp);
BENCHMARK_CAPTURE(BM_AudioClassify, music, &apps::makeMusicJournalApp);
BENCHMARK_CAPTURE(BM_AudioClassify, phrase, &apps::makePhraseApp);

/**
 * Bins 0..128 of the 256-point real spectrum of every siren frame
 * (hop 128) of the 60 s office trace: 1,873 distinct spectra, laid
 * end to end. One iteration takes the magnitudes of all of them, so
 * no spectrum repeats within it: glibc's hypot branches on the data,
 * and on a few repeated frames the predictor learns those branches
 * and flatters it.
 */
const std::vector<dsp::Complex> &
officeSpectra()
{
    static const std::vector<dsp::Complex> bins = [] {
        constexpr std::size_t n = 256;
        const auto &trace = officeAudioTrace();
        const auto &audio = trace.channels[trace.channelIndex("AUDIO")];
        const auto plan = dsp::FftPlan::forSize(n);
        std::vector<dsp::Complex> spectrum(n), all;
        for (std::size_t start = 0; start + n <= audio.size();
             start += n / 2) {
            plan->forwardReal(audio.data() + start, spectrum.data());
            all.insert(all.end(), spectrum.begin(),
                       spectrum.begin() + n / 2 + 1);
        }
        return all;
    }();
    return bins;
}

/** dsp::magnitudesInto over officeSpectra(): ns per bin. */
void
BM_Magnitudes(benchmark::State &state)
{
    const auto &bins = officeSpectra();
    std::vector<double> mags(bins.size());
    for (auto _ : state) {
        dsp::magnitudesInto(bins.data(), bins.size(), mags.data());
        benchmark::DoNotOptimize(mags.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(bins.size()));
}
// Median of five: the denominator of magnitudes_vs_std_abs.
BENCHMARK(BM_Magnitudes)->Repetitions(5)->ReportAggregatesOnly(true);

/** The std::abs loop magnitudesInto replaced, over the same bins. */
void
BM_MagnitudesStdAbs(benchmark::State &state)
{
    const auto &bins = officeSpectra();
    std::vector<double> mags(bins.size());
    for (auto _ : state) {
        for (std::size_t i = 0; i < bins.size(); ++i)
            mags[i] = std::abs(bins[i]);
        benchmark::DoNotOptimize(mags.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(bins.size()));
}
// Median of five: the numerator of magnitudes_vs_std_abs.
BENCHMARK(BM_MagnitudesStdAbs)->Repetitions(5)->ReportAggregatesOnly(true);

void
BM_MovingAverage(benchmark::State &state)
{
    dsp::MovingAverage filter(
        static_cast<std::size_t>(state.range(0)));
    double x = 0.0;
    for (auto _ : state) {
        x += 0.1;
        benchmark::DoNotOptimize(filter.push(std::sin(x)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MovingAverage)->Arg(5)->Arg(50);

void
BM_ZeroCrossingRate(benchmark::State &state)
{
    const auto frame = toneFrame(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(dsp::zeroCrossingRate(frame));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZeroCrossingRate)->Arg(64)->Arg(2048);

void
BM_Variance(benchmark::State &state)
{
    const auto frame = toneFrame(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(dsp::variance(frame));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Variance)->Arg(64)->Arg(2048);

/** Interpreter throughput on the Figure 2 significant-motion graph. */
void
BM_EngineSignificantMotion(benchmark::State &state)
{
    hub::Engine engine(
        {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}});
    engine.addCondition(
        1, il::lower(il::parse("ACC_X -> movingAvg(id=1, params={10});\n"
                               "ACC_Y -> movingAvg(id=2, params={10});\n"
                               "ACC_Z -> movingAvg(id=3, params={10});\n"
                               "1,2,3 -> vectorMagnitude(id=4);\n"
                               "4 -> minThreshold(id=5, params={15});\n"
                               "5 -> OUT;\n"),
                     engine.channels(), engine.lowerOptions()));
    const std::vector<double> sample{1.0, 1.0, 9.8};
    double t = 0.0;
    DspCounterScope counters(state);
    for (auto _ : state) {
        engine.pushSamples(sample, t);
        t += 0.02;
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSignificantMotion);

/**
 * Block execution on the same scalar significant-motion graph. This
 * workload has no FFT to bound it, so ns/sample here against
 * BM_EngineSignificantMotion isolates the pure dispatch win of the
 * block wave loop (virtual calls, firing decisions, wake scan) from
 * the math-bound audio pipelines.
 */
void
BM_BlockDispatchSignificantMotion(benchmark::State &state)
{
    const auto block = static_cast<std::size_t>(state.range(0));
    hub::Engine engine(
        {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}});
    engine.addCondition(
        1, il::lower(il::parse("ACC_X -> movingAvg(id=1, params={10});\n"
                               "ACC_Y -> movingAvg(id=2, params={10});\n"
                               "ACC_Z -> movingAvg(id=3, params={10});\n"
                               "1,2,3 -> vectorMagnitude(id=4);\n"
                               "4 -> minThreshold(id=5, params={15});\n"
                               "5 -> OUT;\n"),
                     engine.channels(), engine.lowerOptions()));
    // Channel-major lanes, same constant stimulus as the per-sample
    // benchmark.
    std::vector<double> samples(3 * block);
    for (std::size_t w = 0; w < block; ++w) {
        samples[w] = 1.0;
        samples[block + w] = 1.0;
        samples[2 * block + w] = 9.8;
    }
    double t = 0.0;
    DspCounterScope counters(state);
    for (auto _ : state) {
        engine.pushBlock(samples.data(), block, t, 0.02);
        t += 0.02 * static_cast<double>(block);
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(block));
}
BENCHMARK(BM_BlockDispatchSignificantMotion)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

/**
 * An 8-deep admission chain of stateless thresholds: each node is one
 * compare, so per-sample time here is almost pure wave-loop dispatch
 * — the overhead the block loop exists to amortize. The first seven
 * stages pass every sample; the last blocks, so no wake-event
 * traffic pollutes the dispatch measurement.
 */
const char *kScalarChainIl =
    "AUDIO -> minThreshold(id=1, params={-1000});\n"
    "1 -> minThreshold(id=2, params={-1000});\n"
    "2 -> minThreshold(id=3, params={-1000});\n"
    "3 -> minThreshold(id=4, params={-1000});\n"
    "4 -> minThreshold(id=5, params={-1000});\n"
    "5 -> minThreshold(id=6, params={-1000});\n"
    "6 -> minThreshold(id=7, params={-1000});\n"
    "7 -> maxThreshold(id=8, params={-1000});\n"
    "8 -> OUT;\n";

/** Per-sample dispatch cost of the scalar chain. */
void
BM_PlanDispatchScalarChain(benchmark::State &state)
{
    hub::Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(1, il::lower(il::parse(kScalarChainIl),
                                     engine.channels(),
                                     engine.lowerOptions()));
    std::vector<double> sample{0.25};
    double t = 0.0;
    DspCounterScope counters(state);
    for (auto _ : state) {
        engine.pushSamples(sample, t);
        t += 0.00025;
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanDispatchScalarChain);

/**
 * Block execution of the scalar chain: the dispatch-bound speedup.
 * ns/sample here vs BM_PlanDispatchScalarChain isolates what block
 * dispatch saves when kernels are cheap (no FFT floor in the way).
 */
void
BM_BlockDispatchScalarChain(benchmark::State &state)
{
    const auto block = static_cast<std::size_t>(state.range(0));
    hub::Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(1, il::lower(il::parse(kScalarChainIl),
                                     engine.channels(),
                                     engine.lowerOptions()));
    std::vector<double> samples(block, 0.25);
    double t = 0.0;
    DspCounterScope counters(state);
    for (auto _ : state) {
        engine.pushBlock(samples.data(), block, t, 0.00025);
        t += 0.00025 * static_cast<double>(block);
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(block));
}
BENCHMARK(BM_BlockDispatchScalarChain)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

/** Interpreter throughput on the audio-rate siren graph. */
void
BM_EngineSirenPipeline(benchmark::State &state)
{
    hub::Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(
        1,
        il::lower(il::parse("AUDIO -> window(id=1, params={256,1});\n"
                            "1 -> highPass(id=2, params={750});\n"
                            "2 -> fft(id=3);\n"
                            "3 -> spectrum(id=4);\n"
                            "4 -> peakToMeanRatio(id=5);\n"
                            "5 -> minThreshold(id=6, params={4});\n"
                            "AUDIO -> window(id=7, params={256,1});\n"
                            "7 -> highPass(id=8, params={750});\n"
                            "8 -> fft(id=9);\n"
                            "9 -> spectrum(id=10);\n"
                            "10 -> dominantFreqHz(id=11);\n"
                            "11 -> bandThreshold(id=12, params={850,1800});\n"
                            "6,12 -> and(id=13);\n"
                            "13 -> consecutive(id=14, params={11});\n"
                            "14 -> OUT;\n"),
                  engine.channels(), engine.lowerOptions()));
    // Warm up past the first frames so node result buffers are sized,
    // then show the steady-state allocation rate of the interpreter.
    std::vector<double> sample(1);
    double t = 0.0;
    double phase = 0.0;
    for (int i = 0; i < 1024; ++i) {
        phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
        sample[0] = 0.3 * std::sin(phase);
        engine.pushSamples(sample, t);
        t += 0.00025;
        engine.drainWakeEvents();
    }
    DspCounterScope counters(state);
    for (auto _ : state) {
        phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
        sample[0] = 0.3 * std::sin(phase);
        engine.pushSamples(sample, t);
        t += 0.00025;
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSirenPipeline);

// ---------------------------------------------------------------------
// Plan dispatch: the multi-condition audio workload
// (siren + phrase sharing a spectral prefix) on the plan-executing
// engine vs the frozen AST interpreter it replaced.

/** Install siren + phrase on @p engine and warm it up. */
template <typename EngineT>
void
installSirenPhrase(EngineT &engine, double &t, double &phase)
{
    const il::Program conditions[] = {
        apps::makeSirenApp()->wakeCondition().compile(),
        apps::makePhraseApp()->wakeCondition().compile()};
    for (int id = 1; id <= 2; ++id) {
        const il::Program &program = conditions[id - 1];
        // The engine installs plans; the frozen interpreter, IL.
        if constexpr (std::is_same_v<EngineT, hub::Engine>)
            engine.addCondition(id, il::lower(program, engine.channels(),
                                              engine.lowerOptions()));
        else
            engine.addCondition(id, program);
    }
    std::vector<double> sample(1);
    for (int i = 0; i < 1024; ++i) {
        phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
        sample[0] = 0.3 * std::sin(phase);
        engine.pushSamples(sample, t);
        t += 0.00025;
        engine.drainWakeEvents();
    }
}

/** Plan-dispatch throughput on the shared siren + phrase workload. */
void
BM_PlanDispatchSirenPhrase(benchmark::State &state)
{
    hub::Engine engine({{"AUDIO", 4000.0}});
    double t = 0.0;
    double phase = 0.0;
    installSirenPhrase(engine, t, phase);
    std::vector<double> sample(1);
    DspCounterScope counters(state);
    for (auto _ : state) {
        phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
        sample[0] = 0.3 * std::sin(phase);
        engine.pushSamples(sample, t);
        t += 0.00025;
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["nodes"] = static_cast<double>(engine.nodeCount());
}
BENCHMARK(BM_PlanDispatchSirenPhrase);

/**
 * Block-execution throughput on the same workload: K waves per
 * pushBlock(), so each node runs a tight loop over contiguous lanes
 * instead of K virtual calls through the per-sample wave loop. The
 * K sweep is the tentpole acceptance measurement — ns/sample here vs
 * BM_PlanDispatchSirenPhrase is the block-dispatch speedup.
 */
void
BM_BlockDispatchSirenPhrase(benchmark::State &state)
{
    const auto block = static_cast<std::size_t>(state.range(0));
    hub::Engine engine({{"AUDIO", 4000.0}});
    double t = 0.0;
    double phase = 0.0;
    installSirenPhrase(engine, t, phase);
    std::vector<double> samples(block);
    DspCounterScope counters(state);
    for (auto _ : state) {
        for (std::size_t i = 0; i < block; ++i) {
            phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
            samples[i] = 0.3 * std::sin(phase);
        }
        engine.pushBlock(samples.data(), block, t, 0.00025);
        t += 0.00025 * static_cast<double>(block);
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(block));
    state.counters["nodes"] = static_cast<double>(engine.nodeCount());
}
BENCHMARK(BM_BlockDispatchSirenPhrase)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

/**
 * The same block workload in fixed-point mode: Q15 kernels (the
 * 2-bytes-per-sample firmware arithmetic) under block dispatch.
 */
void
BM_BlockDispatchSirenPhraseQ15(benchmark::State &state)
{
    const auto block = static_cast<std::size_t>(state.range(0));
    hub::Engine engine({{"AUDIO", 4000.0}}, true, 200,
                       hub::KernelMode::FixedQ15);
    double t = 0.0;
    double phase = 0.0;
    installSirenPhrase(engine, t, phase);
    std::vector<double> samples(block);
    DspCounterScope counters(state);
    for (auto _ : state) {
        for (std::size_t i = 0; i < block; ++i) {
            phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
            samples[i] = 0.3 * std::sin(phase);
        }
        engine.pushBlock(samples.data(), block, t, 0.00025);
        t += 0.00025 * static_cast<double>(block);
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(block));
    state.counters["nodes"] = static_cast<double>(engine.nodeCount());
}
BENCHMARK(BM_BlockDispatchSirenPhraseQ15)->Arg(64)->Arg(256);

/** Same workload on the frozen AST interpreter (src/reference/). */
void
BM_LegacyDispatchSirenPhrase(benchmark::State &state)
{
    reference::LegacyEngine engine({{"AUDIO", 4000.0}});
    double t = 0.0;
    double phase = 0.0;
    installSirenPhrase(engine, t, phase);
    std::vector<double> sample(1);
    DspCounterScope counters(state);
    for (auto _ : state) {
        phase += 2.0 * std::numbers::pi * 1200.0 / 4000.0;
        sample[0] = 0.3 * std::sin(phase);
        engine.pushSamples(sample, t);
        t += 0.00025;
        benchmark::DoNotOptimize(engine.drainWakeEvents());
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["nodes"] = static_cast<double>(engine.nodeCount());
}
BENCHMARK(BM_LegacyDispatchSirenPhrase);

// ---------------------------------------------------------------------
// Static analyzer wall-clock: admission control runs on every push,
// so il::analyze() must stay far under 10 ms per program.

/** One analyzable program: IL plus the channels it runs on. */
struct AnalyzeUnit
{
    il::Program program;
    std::vector<il::ChannelInfo> channels;
};

std::vector<AnalyzeUnit>
analyzeUnits()
{
    std::vector<AnalyzeUnit> units;
    for (const auto &app : apps::allApps())
        units.push_back({app->wakeCondition().compile(),
                         app->channels()});
    units.push_back({apps::significantMotionCondition().compile(),
                     core::accelerometerChannels()});
    units.push_back({apps::significantSoundCondition().compile(),
                     core::audioChannels()});
    return units;
}

/** Analyzer throughput over every shipped wake condition. */
void
BM_AnalyzeAllApps(benchmark::State &state)
{
    const auto units = analyzeUnits();
    for (auto _ : state)
        for (const auto &unit : units)
            benchmark::DoNotOptimize(
                il::analyze(unit.program, unit.channels));
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(units.size()));
    state.counters["programs"] =
        static_cast<double>(units.size());
}
BENCHMARK(BM_AnalyzeAllApps);

/**
 * Value-range abstract interpretation over the largest shipped plan
 * (siren). Lowering happens once outside the loop — the bench prices
 * the interval pass itself, which swlint --ranges and fleet
 * admission pay per distinct condition (budget: well under 100 us).
 */
void
BM_RangeAnalyze(benchmark::State &state)
{
    const auto app = apps::makeSirenApp();
    const il::ExecutionPlan plan = il::lower(
        app->wakeCondition().compile(), app->channels());
    for (auto _ : state)
        benchmark::DoNotOptimize(il::analyzeRanges(plan));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeAnalyze);

/** Cost of one il::lower() call on the largest shipped program. */
void
BM_Lower(benchmark::State &state)
{
    const auto app = apps::makeSirenApp();
    const il::Program program = app->wakeCondition().compile();
    const auto channels = app->channels();
    for (auto _ : state)
        benchmark::DoNotOptimize(il::lower(program, channels));
    state.SetItemsProcessed(state.iterations());
}
// Median of five: the numerator of lower_vs_analyze, registered
// beside its denominator so the two run back to back.
BENCHMARK(BM_Lower)->Repetitions(5)->ReportAggregatesOnly(true);

/**
 * The largest shipped program (siren: 15 statements, two FFTs). One
 * legality walk that also lowers, so it costs little more than
 * BM_Lower; an analyze() that lowered a second time would cost twice.
 */
void
BM_AnalyzeSiren(benchmark::State &state)
{
    const auto app = apps::makeSirenApp();
    const il::Program program = app->wakeCondition().compile();
    const auto channels = app->channels();
    for (auto _ : state)
        benchmark::DoNotOptimize(il::analyze(program, channels));
    state.SetItemsProcessed(state.iterations());
}
// Median of five: the denominator of lower_vs_analyze.
BENCHMARK(BM_AnalyzeSiren)->Repetitions(5)->ReportAggregatesOnly(true);

/** Text rendering on top of analysis (what swlint does per file). */
void
BM_AnalyzeAndRenderSiren(benchmark::State &state)
{
    const auto app = apps::makeSirenApp();
    const il::Program program = app->wakeCondition().compile();
    const auto channels = app->channels();
    for (auto _ : state) {
        const auto result = il::analyze(program, channels);
        benchmark::DoNotOptimize(il::renderText(result, "siren"));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeAndRenderSiren);

/**
 * A WakeUp frame the size the supervised runs ship: ~1.2 KB, 147 raw
 * accelerometer samples of history behind the trigger.
 */
transport::Frame
wakeFrame(int id)
{
    transport::WakeUpMessage message;
    message.conditionId = id;
    message.timestamp = 12.5 + id;
    message.triggerValue = 15.2;
    for (int i = 0; i < 147; ++i)
        message.rawData.push_back(9.81 + std::sin(0.3 * i + id));
    return transport::encodeWakeUp(message);
}

/**
 * The phone's receive path on a clean line: sixteen wake frames fed
 * to the decoder as one span — SOF search, header checks, bulk
 * payload CRC and one payload copy per frame.
 */
void
BM_FrameDecoderWake(benchmark::State &state)
{
    std::vector<std::uint8_t> stream;
    for (int id = 0; id < 16; ++id) {
        const auto wire = transport::encodeFrame(wakeFrame(id));
        stream.insert(stream.end(), wire.begin(), wire.end());
    }
    transport::FrameDecoder decoder;
    std::int64_t frames = 0;
    const auto allocs_before = bench::allocCount();
    for (auto _ : state) {
        decoder.feed(std::span<const std::uint8_t>(stream));
        while (auto frame = decoder.poll()) {
            benchmark::DoNotOptimize(frame->payload.data());
            ++frames;
        }
    }
    const double iters =
        static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
    state.counters["frames/iter"] = static_cast<double>(frames) / iters;
    state.counters["allocs/iter"] =
        static_cast<double>(bench::allocCount() - allocs_before) / iters;
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_FrameDecoderWake);

/**
 * One wake frame across the supervised link: sendFrame under
 * sim::armLink's seeded 1e-3 per-byte corruption, receive once the
 * line has serialized it, decode — resynchronizing whenever a flip
 * lands. The per-byte corruption draw is the fault model itself and
 * sets the floor here.
 */
void
BM_LinkCorruptedWake(benchmark::State &state)
{
    transport::LinkPair link(115200.0);
    sim::FaultPlan plan;
    plan.byteCorruptionRate = 1e-3;
    sim::armLink(link, plan);
    transport::UartLink &line = link.hubToPhone();
    const transport::Frame frame = wakeFrame(1);
    transport::FrameDecoder decoder;
    double now = 0.0;
    std::int64_t delivered = 0;
    for (auto _ : state) {
        line.sendFrame(frame, now);
        now = line.busyUntil();
        decoder.feed(line.receive(now));
        while (decoder.poll())
            ++delivered;
    }
    const double iters =
        static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
    state.counters["delivered/iter"] =
        static_cast<double>(delivered) / iters;
    state.counters["corrupted/iter"] =
        static_cast<double>(line.corruptedBytes()) / iters;
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkCorruptedWake);

/** @p n wire bytes, one raw-data wake frame's worth at 1230. */
std::vector<std::uint8_t>
wireBytes(std::int64_t n)
{
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
    return bytes;
}

/** CRC-16 as one crc16Step table lookup per byte, a serial chain. */
void
BM_Crc16Bytewise(benchmark::State &state)
{
    const auto bytes = wireBytes(state.range(0));
    for (auto _ : state) {
        std::uint16_t crc = 0xFFFF;
        for (std::uint8_t byte : bytes)
            crc = transport::crc16Step(crc, byte);
        benchmark::DoNotOptimize(crc);
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc16Bytewise)->Arg(1230);

/** The same CRC through crc16Update's slicing-by-8 fold. */
void
BM_Crc16(benchmark::State &state)
{
    const auto bytes = wireBytes(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(transport::crc16(bytes));
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(1230);

/**
 * The per-byte corruption draw as a bernoulli_distribution(1e-3) on
 * the standard library's mt19937_64, a bit from
 * uniform_int_distribution(0, 7) on a hit: the loop byteCorruptor
 * reproduces.
 */
void
BM_StdBernoulliBytes(benchmark::State &state)
{
    auto bytes = wireBytes(state.range(0));
    std::mt19937_64 engine(0x5EED5EED);
    for (auto _ : state) {
        for (std::uint8_t &byte : bytes) {
            std::bernoulli_distribution hit(1e-3);
            if (hit(engine)) {
                std::uniform_int_distribution<std::int64_t> bit(0, 7);
                byte = static_cast<std::uint8_t>(byte ^
                                                 (1u << bit(engine)));
            }
        }
        benchmark::DoNotOptimize(bytes.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StdBernoulliBytes)->Arg(1230);

/** The same draws through armLink's hook at 1e-3, one call a send. */
void
BM_CorruptBytes(benchmark::State &state)
{
    auto bytes = wireBytes(state.range(0));
    const auto corrupt = sim::byteCorruptor(
        std::make_shared<Rng>(0x5EED5EED), 1e-3, 1e-3, nullptr);
    for (auto _ : state) {
        corrupt(bytes);
        benchmark::DoNotOptimize(bytes.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CorruptBytes)->Arg(1230);

/** Gaussian draws per iteration of the two trace-noise benches. */
constexpr std::size_t gaussianBatch = 4096;

/** Rng::gaussian, the draw behind every generator's sensor noise:
    ns per draw. */
void
BM_Gaussian(benchmark::State &state)
{
    Rng rng(0x5EED5EED);
    std::vector<double> noise(gaussianBatch);
    for (auto _ : state) {
        for (double &v : noise)
            v = rng.gaussian(0.0, 0.05);
        benchmark::DoNotOptimize(noise.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(gaussianBatch));
}
// Median of five: the denominator of gaussian_vs_std_normal.
BENCHMARK(BM_Gaussian)->Repetitions(5)->ReportAggregatesOnly(true);

/** The same draws as a fresh std::normal_distribution per call on the
    same engine and seed: what Rng::gaussian returns, the library's way. */
void
BM_StdGaussian(benchmark::State &state)
{
    detail::MersenneTwister64 engine(0x5EED5EED);
    std::vector<double> noise(gaussianBatch);
    for (auto _ : state) {
        for (double &v : noise) {
            std::normal_distribution<double> normal(0.0, 0.05);
            v = normal(engine);
        }
        benchmark::DoNotOptimize(noise.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(gaussianBatch));
}
// Median of five: the numerator of gaussian_vs_std_normal.
BENCHMARK(BM_StdGaussian)->Repetitions(5)->ReportAggregatesOnly(true);

/**
 * The `faults` workload's trace at the default seed: one generated
 * 600 s robot run, half of it idle.
 */
const trace::Trace &
faultRun()
{
    static const trace::Trace run = [] {
        trace::RobotRunConfig config;
        config.idleFraction = 0.5;
        config.durationSeconds = 600.0;
        config.seed = 20160402;
        return trace::generateRobotRun(config);
    }();
    return run;
}

/** The steps app's Sidewinder cell on faultRun(), fault-free: the
    fast path, block replay with no link. */
void
BM_StepsCellFastPath(benchmark::State &state)
{
    const auto app = apps::makeStepsApp();
    sim::SimConfig config;
    config.strategy = sim::Strategy::Sidewinder;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim::simulate(faultRun(), *app, config).recall);
}
BENCHMARK(BM_StepsCellFastPath);

/**
 * The same cell through the supervised stack at a 5% frame drop
 * rate, per-sample ingestion and both link polls on every wave. A
 * byte, frame or timer is due on only a few percent of its waves, so
 * against BM_StepsCellFastPath this prices an idle wave.
 */
void
BM_StepsCellSupervisedDrop(benchmark::State &state)
{
    const auto app = apps::makeStepsApp();
    sim::SimConfig config;
    config.strategy = sim::Strategy::Sidewinder;
    config.faults.frameDropRate = 0.05;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim::simulateSupervised(faultRun(), *app, config).recall);
}
BENCHMARK(BM_StepsCellSupervisedDrop);

/** The four hub plans of the Figure 5 grid. */
enum class RobotPlan { SignificantMotion, Steps, Transitions, Headbutts };

/** @p which lowered against the accelerometer channels: the
    manufacturer's detector at its default threshold, or an app's own
    Sidewinder condition. */
il::ExecutionPlan
robotPlan(RobotPlan which)
{
    core::ProcessingPipeline pipeline;
    switch (which) {
      case RobotPlan::SignificantMotion:
        pipeline = apps::significantMotionCondition();
        break;
      case RobotPlan::Steps:
        pipeline = apps::makeStepsApp()->wakeCondition();
        break;
      case RobotPlan::Transitions:
        pipeline = apps::makeTransitionsApp()->wakeCondition();
        break;
      case RobotPlan::Headbutts:
        pipeline = apps::makeHeadbuttsApp()->wakeCondition();
        break;
    }
    return il::lower(pipeline.compile(), core::accelerometerChannels());
}

/** Parameters of the plan node running @p algorithm. */
const std::vector<double> &
paramsOf(const il::ExecutionPlan &plan, const std::string &algorithm)
{
    for (std::size_t i = 0; i < plan.nodeCount(); ++i)
        if (plan.algorithms[i] == algorithm)
            return plan.params[i];
    throw std::runtime_error("plan has no " + algorithm + " node");
}

/**
 * The plan replayed without the engine: the same dsp objects, fed
 * sample by sample by a hand-written loop over @p run, each wake's
 * timestamp appended to @p wakes. The floor the engine is measured
 * against.
 */
void
handLoop(RobotPlan which, const il::ExecutionPlan &plan,
         const trace::Trace &run, std::vector<double> &wakes)
{
    wakes.clear();
    const std::size_t n = run.sampleCount();
    if (which == RobotPlan::SignificantMotion) {
        const auto &window = paramsOf(plan, "window");
        const dsp::Threshold threshold(dsp::ThresholdKind::Min,
                                       paramsOf(plan, "minThreshold")[0]);
        const auto size = static_cast<std::size_t>(window[0]);
        const auto hop = static_cast<std::size_t>(window[2]);
        std::vector<dsp::WindowPartitioner> axes(
            3, dsp::WindowPartitioner(size, dsp::WindowType::Rectangular,
                                      hop));
        std::vector<std::vector<double>> frames(3);
        const double *lanes[3] = {run.channels[0].data(),
                                  run.channels[1].data(),
                                  run.channels[2].data()};
        for (std::size_t i = 0; i < n; ++i) {
            bool framed = true;
            for (std::size_t a = 0; a < 3; ++a)
                framed = axes[a].pushInto(lanes[a][i], frames[a]) && framed;
            if (!framed)
                continue;
            double sum = 0.0;
            for (std::size_t a = 0; a < 3; ++a) {
                const double sd = dsp::stddev(frames[a]);
                sum += sd * sd;
            }
            if (threshold.admits(std::sqrt(sum)))
                wakes.push_back(run.timeOf(i));
        }
        return;
    }

    const double *lane =
        run.channels[run.channelIndex(
                         plan.channels[static_cast<std::size_t>(
                                           plan.primaryChannel)]
                             .name)]
            .data();
    dsp::MovingAverage smooth(
        static_cast<std::size_t>(paramsOf(plan, "movingAvg")[0]));
    if (which == RobotPlan::Transitions) {
        const auto &band = paramsOf(plan, "bandThreshold");
        const dsp::Threshold threshold(dsp::ThresholdKind::Band, band[0],
                                       band[1]);
        for (std::size_t i = 0; i < n; ++i) {
            const auto mean = smooth.push(lane[i]);
            if (mean && threshold.admits(*mean))
                wakes.push_back(run.timeOf(i));
        }
        return;
    }
    const bool maxima = which == RobotPlan::Steps;
    const auto &band =
        paramsOf(plan, maxima ? "localMaxima" : "localMinima");
    dsp::PeakDetector peaks(
        maxima ? dsp::PeakPolarity::Maxima : dsp::PeakPolarity::Minima,
        band[0], band[1],
        band.size() >= 3 ? static_cast<std::size_t>(band[2]) : 0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto mean = smooth.push(lane[i]);
        if (mean && peaks.push(*mean))
            wakes.push_back(run.timeOf(i));
    }
}

/**
 * The significant-motion plan's kernels alone over @p run, with no
 * engine: the three axes' WindowPartitioners appended in bulk between
 * frame completions as WindowKernel does, one dsp::stddevOfFrames call
 * over each hop's three frames, the magnitude and the threshold. The
 * floor BM_RobotPlan/significant_motion's bookkeeping is measured
 * against; each wake's timestamp is appended to @p wakes.
 */
void
kernelLoop(const il::ExecutionPlan &plan, const trace::Trace &run,
           std::vector<double> &wakes)
{
    wakes.clear();
    const auto &window = paramsOf(plan, "window");
    const dsp::Threshold threshold(dsp::ThresholdKind::Min,
                                   paramsOf(plan, "minThreshold")[0]);
    const auto size = static_cast<std::size_t>(window[0]);
    const auto hop = static_cast<std::size_t>(window[2]);
    std::vector<dsp::WindowPartitioner> axes(
        3, dsp::WindowPartitioner(size, dsp::WindowType::Rectangular, hop));
    std::vector<double> frames[3];
    const double *lanes[3] = {run.channels[0].data(), run.channels[1].data(),
                              run.channels[2].data()};
    const std::size_t n = run.sampleCount();
    std::size_t i = 0;
    while (i < n) {
        // The axes started together, so they frame on the same samples.
        const std::size_t quiet =
            std::min(axes[0].remainingToFrame() - 1, n - i);
        if (quiet != 0) {
            for (std::size_t a = 0; a < 3; ++a)
                axes[a].appendPartial(lanes[a] + i, quiet);
            i += quiet;
            if (i == n)
                break;
        }
        bool framed = true;
        for (std::size_t a = 0; a < 3; ++a)
            framed = axes[a].pushInto(lanes[a][i], frames[a]) && framed;
        if (framed) {
            const double *data[3] = {frames[0].data(), frames[1].data(),
                                     frames[2].data()};
            double sd[3];
            dsp::stddevOfFrames(data, 3, size, sd);
            double sum = 0.0;
            for (double v : sd)
                sum += v * v;
            if (threshold.admits(std::sqrt(sum)))
                wakes.push_back(run.timeOf(i));
        }
        ++i;
    }
}

/**
 * The plan replayed the way simulate() replays it: a fresh engine,
 * one install, then sim::detail::replayTrace in 64-wave blocks.
 *
 * @return the heap allocations of the replay alone, install excluded.
 */
std::uint64_t
engineReplay(const il::ExecutionPlan &plan, const trace::Trace &run,
             std::vector<double> &wakes)
{
    wakes.clear();
    hub::Engine engine(core::accelerometerChannels());
    engine.addCondition(1, plan);
    const std::uint64_t before = bench::allocCount();
    sim::detail::replayTrace(engine, run, [&](const hub::WakeEvent &e) {
        wakes.push_back(e.timestamp);
    });
    return bench::allocCount() - before;
}

/**
 * Figure 5's hub plans on faultRun() through the engine. Each
 * iteration builds an engine, installs the plan and replays the whole
 * 600 s run; allocs/run counts the heap allocations of the replay
 * (install excluded), allocs/block divides them by the run's 64-wave
 * blocks. ns per wave is real_time over items.
 */
void
BM_RobotPlan(benchmark::State &state, RobotPlan which)
{
    const trace::Trace &run = faultRun();
    const il::ExecutionPlan plan = robotPlan(which);
    std::vector<double> wakes;
    std::vector<double> hand;
    engineReplay(plan, run, wakes);
    handLoop(which, plan, run, hand);
    if (wakes != hand || wakes.empty()) {
        state.SkipWithError("engine and hand loop raise different wakes");
        return;
    }
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        allocs += engineReplay(plan, run, wakes);
        benchmark::DoNotOptimize(wakes.data());
    }
    const double iters = static_cast<double>(
        std::max<std::int64_t>(state.iterations(), 1));
    const double blocks = std::ceil(
        static_cast<double>(run.sampleCount()) /
        static_cast<double>(sim::detail::replayBlockWaves));
    state.counters["allocs/run"] = static_cast<double>(allocs) / iters;
    state.counters["allocs/block"] =
        static_cast<double>(allocs) / iters / blocks;
    state.counters["wakes"] = static_cast<double>(wakes.size());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(run.sampleCount()));
}
// Median of five: the denominator of two ratio floors in
// scripts/bench_budgets.json, which gate on the medians.
BENCHMARK_CAPTURE(BM_RobotPlan, significant_motion,
                  RobotPlan::SignificantMotion)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);
BENCHMARK_CAPTURE(BM_RobotPlan, steps, RobotPlan::Steps);
BENCHMARK_CAPTURE(BM_RobotPlan, transitions, RobotPlan::Transitions);
BENCHMARK_CAPTURE(BM_RobotPlan, headbutts, RobotPlan::Headbutts);

/** BM_RobotPlan's within-run twin: the same wakes from a hand loop
    over the same dsp objects. */
void
BM_RobotPlanHandLoop(benchmark::State &state, RobotPlan which)
{
    const trace::Trace &run = faultRun();
    const il::ExecutionPlan plan = robotPlan(which);
    std::vector<double> wakes;
    DspCounterScope counters(state);
    for (auto _ : state) {
        handLoop(which, plan, run, wakes);
        benchmark::DoNotOptimize(wakes.data());
    }
    state.counters["wakes"] = static_cast<double>(wakes.size());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(run.sampleCount()));
}
BENCHMARK_CAPTURE(BM_RobotPlanHandLoop, significant_motion,
                  RobotPlan::SignificantMotion);
BENCHMARK_CAPTURE(BM_RobotPlanHandLoop, steps, RobotPlan::Steps);
BENCHMARK_CAPTURE(BM_RobotPlanHandLoop, transitions,
                  RobotPlan::Transitions);
BENCHMARK_CAPTURE(BM_RobotPlanHandLoop, headbutts, RobotPlan::Headbutts);

/**
 * BM_RobotPlan/significant_motion's kernel-only twin (kernelLoop): the
 * same arithmetic in the same order with no engine around it, so
 * twin / engine prices the engine's per-block bookkeeping.
 */
void
BM_RobotPlanKernels(benchmark::State &state, RobotPlan which)
{
    const trace::Trace &run = faultRun();
    const il::ExecutionPlan plan = robotPlan(which);
    std::vector<double> wakes;
    std::vector<double> engine;
    kernelLoop(plan, run, wakes);
    engineReplay(plan, run, engine);
    if (wakes != engine || wakes.empty()) {
        state.SkipWithError("engine and kernel loop raise different wakes");
        return;
    }
    for (auto _ : state) {
        kernelLoop(plan, run, wakes);
        benchmark::DoNotOptimize(wakes.data());
    }
    state.counters["wakes"] = static_cast<double>(wakes.size());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(run.sampleCount()));
}
BENCHMARK_CAPTURE(BM_RobotPlanKernels, significant_motion,
                  RobotPlan::SignificantMotion)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

} // namespace

/**
 * Custom main instead of benchmark_main: stamps the *sidewinder*
 * build type into the JSON context so scripts/run_benches.sh can
 * refuse debug numbers. (The library's own library_build_type field
 * describes how the distro built google-benchmark, not us.)
 */
int
main(int argc, char **argv)
{
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    benchmark::AddCustomContext("sidewinder_build_type", "release");
#else
    benchmark::AddCustomContext("sidewinder_build_type", "debug");
#endif
    // Worker-thread provenance: every benchmark JSON records the
    // effective pool width, the SW_THREADS override, the core count
    // and the parallelism the host delivered, so numbers from
    // thread-starved or busy containers are distinguishable after the
    // fact.
    benchmark::AddCustomContext(
        "sidewinder_threads",
        std::to_string(
            sidewinder::support::ThreadPool::defaultThreadCount()));
    {
        const auto override =
            sidewinder::support::ThreadPool::envThreadOverride();
        benchmark::AddCustomContext(
            "sidewinder_sw_threads",
            override ? std::to_string(*override) : "unset");
    }
    benchmark::AddCustomContext(
        "sidewinder_cores",
        std::to_string(std::thread::hardware_concurrency()));
    {
        char parallelism[32];
        std::snprintf(parallelism, sizeof parallelism, "%.2f",
                      sidewinder::bench::deliveredParallelism());
        benchmark::AddCustomContext("sidewinder_delivered_parallelism",
                                    parallelism);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
