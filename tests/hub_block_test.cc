/**
 * @file
 * Block-execution tests: pushBlock() interleaved with per-sample
 * pushes, cycle accounting, Q15-mode parity with the double pipeline
 * on the shipped applications, and the Q15 RAM model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "apps/apps.h"
#include "dsp/q15.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "il/lower.h"
#include "il/parser.h"
#include "sim/replay.h"
#include "support/rng.h"
#include "trace/audio_gen.h"

namespace sidewinder::hub {
namespace {

const std::vector<il::ChannelInfo> kChannels = {{"ACC_X", 50.0},
                                                {"ACC_Y", 50.0},
                                                {"ACC_Z", 50.0}};

const char *kMotionIl = "ACC_X -> movingAvg(id=1, params={10});\n"
                        "ACC_Y -> movingAvg(id=2, params={10});\n"
                        "ACC_Z -> movingAvg(id=3, params={10});\n"
                        "1,2,3 -> vectorMagnitude(id=4);\n"
                        "4 -> minThreshold(id=5, params={1.2});\n"
                        "5 -> OUT;\n";

/** Deterministic per-wave stimulus, one value per channel. */
void
fillWave(Rng &rng, int wave, std::vector<double> &values)
{
    for (std::size_t c = 0; c < values.size(); ++c)
        values[c] = std::sin(0.07 * wave *
                             (static_cast<double>(c) + 1.0)) +
                    rng.gaussian(0.0, 0.3);
}

/** The counts every comparison starts with: the count == 1 tail, the
    smallest real block, and either side of the 64-wave replay block. */
const std::initializer_list<std::size_t> kEdgeCounts = {1, 2, 63, 64, 65};

/**
 * Feed @p il_text's engine 4000 waves as blocks of varying sizes mixed
 * with single pushes, fed channel-major and through the lane-pointer
 * overload from separate per-channel vectors, and require exactly the
 * per-sample engine's wakes and raw history after every step. The
 * first blocks take @p first_counts waves each.
 *
 * @return the number of wakes raised.
 */
std::size_t
expectBlocksMatchPerSample(
    const char *il_text, KernelMode mode,
    std::initializer_list<std::size_t> first_counts = kEdgeCounts)
{
    const il::Program program = il::parse(il_text);
    Engine block_engine(kChannels, true, 200, mode);
    Engine lane_engine(kChannels, true, 200, mode);
    Engine ref(kChannels, true, 200, mode);
    block_engine.addCondition(1, test::planFor(block_engine, program));
    lane_engine.addCondition(1, test::planFor(lane_engine, program));
    ref.addCondition(1, test::planFor(ref, program));

    Rng rng(21);
    Rng pattern(22);
    const std::size_t nch = kChannels.size();
    std::vector<double> values(nch);
    std::vector<double> packed;
    std::vector<double> times;
    std::vector<std::vector<double>> lane_storage(nch);
    std::vector<const double *> lanes(nch);
    std::size_t step = 0;
    int wave = 0;
    std::size_t wakes = 0;

    while (wave < 4000) {
        // Then alternate single pushes with blocks of 2..97 waves.
        std::size_t count = 1;
        if (step < first_counts.size())
            count = first_counts.begin()[step];
        else if (pattern.uniform(0.0, 1.0) >= 0.3)
            count = static_cast<std::size_t>(pattern.uniformInt(2, 97));
        ++step;
        packed.assign(nch * count, 0.0);
        times.resize(count);
        // Each lane starts at a non-zero offset into a vector of its
        // own, sized exactly and NaN-padded in front: a read outside
        // the lane poisons the wakes or leaves the allocation.
        const std::size_t offset = 1 + step % 5;
        for (auto &lane : lane_storage)
            lane = std::vector<double>(offset + count, std::nan(""));
        std::vector<WakeEvent> want;
        for (std::size_t w = 0; w < count; ++w) {
            const double t = wave * 0.02;
            fillWave(rng, wave, values);
            for (std::size_t c = 0; c < nch; ++c) {
                packed[c * count + w] = values[c];
                lane_storage[c][offset + w] = values[c];
            }
            times[w] = t;
            ref.pushSamples(values, t);
            for (const auto &event : ref.drainWakeEvents())
                want.push_back(event);
            ++wave;
        }
        for (std::size_t c = 0; c < nch; ++c)
            lanes[c] = lane_storage[c].data() + offset;
        if (count == 1)
            block_engine.pushSamples(values, times[0]);
        else
            block_engine.pushBlock(packed.data(), count,
                                   times.data());
        lane_engine.pushBlock(lanes.data(), count,
                              [&times](std::size_t w) { return times[w]; });

        for (Engine *engine : {&block_engine, &lane_engine}) {
            const auto got = engine->drainWakeEvents();
            EXPECT_EQ(got.size(), want.size()) << "wave " << wave;
            if (got.size() != want.size())
                return wakes;
            for (std::size_t e = 0; e < got.size(); ++e) {
                EXPECT_EQ(got[e].conditionId, want[e].conditionId);
                EXPECT_EQ(got[e].timestamp, want[e].timestamp);
                EXPECT_EQ(got[e].value, want[e].value);
            }
            EXPECT_EQ(engine->rawSnapshot(1), ref.rawSnapshot(1))
                << "wave " << wave << ", block of " << count;
        }
        wakes += want.size();
    }

    for (const Engine *engine : {&block_engine, &lane_engine}) {
        // Firing decisions are identical, so the abstract cycle meter
        // must agree up to floating-point summation order.
        EXPECT_NEAR(engine->cyclesConsumed(), ref.cyclesConsumed(),
                    1e-6 * ref.cyclesConsumed() + 1e-9);
    }
    return wakes;
}

TEST(HubBlock, BlocksAndSingleWavesInterleaveBitIdentically)
{
    EXPECT_GT(expectBlocksMatchPerSample(kMotionIl, KernelMode::Float64),
              0u);
}

/**
 * Three stddev branches whose windows complete on different waves
 * (hops 10, 12 and 8; every 120 waves all three at once), one of them
 * behind a threshold that blocks now and then: vectorMagnitude gets
 * fire lanes holding SkipIdle, SkipBlocked and RunAll, and the sparse
 * reducers batch several frames per block. The consecutive stage
 * observes misses, so a Blocked wave landing as Idle moves the wakes.
 */
const char *kStaggeredIl =
    "ACC_X -> window(id=1, params={20, 0, 10});\n"
    "ACC_Y -> window(id=2, params={12, 0, 12});\n"
    "ACC_Z -> window(id=3, params={16, 0, 8});\n"
    "1 -> stddev(id=4);\n"
    "2 -> stddev(id=5);\n"
    "3 -> stddev(id=6);\n"
    "6 -> minThreshold(id=7, params={0.35});\n"
    "4,5,7 -> vectorMagnitude(id=8);\n"
    "8 -> minThreshold(id=9, params={0.7});\n"
    "9 -> consecutive(id=10, params={2});\n"
    "10 -> OUT;\n";

TEST(HubBlock, StaggeredReducersIntoVectorMagnitudeMatchPerSample)
{
    EXPECT_GT(
        expectBlocksMatchPerSample(kStaggeredIl, KernelMode::Float64),
        0u);
}

TEST(HubBlock, Q15StaggeredReducersIntoVectorMagnitudeMatchPerSample)
{
    EXPECT_GT(
        expectBlocksMatchPerSample(kStaggeredIl, KernelMode::FixedQ15),
        0u);
}

/**
 * Three aligned window -> stddev branches that never block, into
 * vectorMagnitude: on every block each producer publishes a short list
 * of the same waves, so the magnitude fires on their intersection
 * without reading a lane.
 */
const char *kSparseMagnitudeIl =
    "ACC_X -> window(id=1, params={16, 0, 8});\n"
    "ACC_Y -> window(id=2, params={16, 0, 8});\n"
    "ACC_Z -> window(id=3, params={16, 0, 8});\n"
    "1 -> stddev(id=4);\n"
    "2 -> stddev(id=5);\n"
    "3 -> stddev(id=6);\n"
    "4,5,6 -> vectorMagnitude(id=7);\n"
    "7 -> minThreshold(id=8, params={0.75});\n"
    "8 -> OUT;\n";

/** The same branches with a threshold upstream of two of them: blocks
    where one rejects fall back to the lane combination, the rest take
    the intersection. The consecutive stage observes misses, so a
    Blocked wave landing as Idle moves the wakes. */
const char *kBlockedMagnitudeIl =
    "ACC_X -> window(id=1, params={16, 0, 8});\n"
    "ACC_Y -> window(id=2, params={16, 0, 8});\n"
    "ACC_Z -> window(id=3, params={16, 0, 8});\n"
    "1 -> stddev(id=4);\n"
    "2 -> stddev(id=5);\n"
    "3 -> stddev(id=6);\n"
    "4 -> minThreshold(id=7, params={0.45});\n"
    "6 -> minThreshold(id=8, params={0.4});\n"
    "7,5,8 -> vectorMagnitude(id=9);\n"
    "9 -> minThreshold(id=10, params={0.75});\n"
    "10 -> consecutive(id=11, params={2});\n"
    "11 -> OUT;\n";

TEST(HubBlock, SparseVectorMagnitudeMatchesPerSample)
{
    for (KernelMode mode : {KernelMode::Float64, KernelMode::FixedQ15}) {
        EXPECT_GT(expectBlocksMatchPerSample(kSparseMagnitudeIl, mode), 0u);
        EXPECT_GT(expectBlocksMatchPerSample(kBlockedMagnitudeIl, mode),
                  0u);
    }
}

/** and over two sparse rms branches, with and without thresholds
    upstream (and forwards its first branch's value). */
const char *kSparseAndIl = "ACC_X -> window(id=1, params={12, 0, 6});\n"
                           "ACC_Y -> window(id=2, params={12, 0, 6});\n"
                           "1 -> rms(id=3);\n"
                           "2 -> rms(id=4);\n"
                           "3,4 -> and(id=5);\n"
                           "5 -> minThreshold(id=6, params={0.8});\n"
                           "6 -> OUT;\n";

const char *kBlockedAndIl = "ACC_X -> window(id=1, params={12, 0, 6});\n"
                            "ACC_Y -> window(id=2, params={12, 0, 6});\n"
                            "1 -> rms(id=3);\n"
                            "2 -> rms(id=4);\n"
                            "3 -> minThreshold(id=5, params={0.7});\n"
                            "4 -> minThreshold(id=6, params={0.6});\n"
                            "5,6 -> and(id=7);\n"
                            "7 -> consecutive(id=8, params={2});\n"
                            "8 -> OUT;\n";

TEST(HubBlock, SparseAndMatchesPerSample)
{
    for (KernelMode mode : {KernelMode::Float64, KernelMode::FixedQ15}) {
        EXPECT_GT(expectBlocksMatchPerSample(kSparseAndIl, mode), 0u);
        EXPECT_GT(expectBlocksMatchPerSample(kBlockedAndIl, mode), 0u);
    }
}

/**
 * A 40-wave window with hop 40: most short blocks complete no frame,
 * so the thresholds publish all-Idle blocks and the consecutive stage
 * behind them (ObserveBlocks) is skipped without reading a lane — yet
 * it must still see every rejected frame as a miss, including those
 * the first threshold rejects and the second passes on as Blocked.
 */
const char *kIdleIntoConsecutiveIl =
    "ACC_X -> window(id=1, params={40, 0, 40});\n"
    "1 -> rms(id=2);\n"
    "2 -> minThreshold(id=3, params={0.72});\n"
    "3 -> maxThreshold(id=4, params={0.8});\n"
    "4 -> consecutive(id=5, params={2});\n"
    "5 -> OUT;\n";

TEST(HubBlock, AllIdleBlocksIntoConsecutiveMatchPerSample)
{
    for (KernelMode mode : {KernelMode::Float64, KernelMode::FixedQ15})
        EXPECT_GT(expectBlocksMatchPerSample(kIdleIntoConsecutiveIl, mode),
                  0u);
}

TEST(HubBlock, SingleWavesRightAfterAllIdleBlocksMatchPerSample)
{
    // Each 30- or 35-wave block completes no 40-wave frame; the single
    // pushes after it complete one and read the node states the block
    // left behind.
    for (KernelMode mode : {KernelMode::Float64, KernelMode::FixedQ15})
        EXPECT_GT(expectBlocksMatchPerSample(
                      kIdleIntoConsecutiveIl, mode,
                      {30, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 35, 1, 1, 1, 1, 1,
                       2, 63, 1, 64, 1, 65, 1}),
                  0u);
}

/** Every wave wakes, so wave 0, the last wave and count == 1 all stamp. */
const char *kEveryWaveIl = "ACC_X -> minThreshold(id=1, params={-100});\n"
                           "1 -> OUT;\n";

/** Wakes every 8th wave: a sparse out node, stamped from its list. */
const char *kEighthWaveIl = "ACC_X -> window(id=1, params={8, 0, 8});\n"
                            "1 -> mean(id=2);\n"
                            "2 -> OUT;\n";

/** Wakes every 64th wave from wave 64 on: wave 0 of each replay block. */
const char *kBlockStartIl = "ACC_X -> window(id=1, params={65, 0, 64});\n"
                            "1 -> mean(id=2);\n"
                            "2 -> OUT;\n";

TEST(HubBlock, LazyEvenlySpacedStampsEqualEagerStamps)
{
    // Blocks of 7, 64, 1, 64 put kEighthWaveIl's wakes on wave 0 of
    // the second block, on the count == 1 push and on the last wave
    // of the fourth; kEveryWaveIl wakes everywhere.
    const double t0 = 3.0;
    const double dt = 0.02;
    for (const char *il_text : {kEveryWaveIl, kEighthWaveIl}) {
        for (KernelMode mode :
             {KernelMode::Float64, KernelMode::FixedQ15}) {
            const il::Program program = il::parse(il_text);
            Engine lazy(kChannels, true, 200, mode);
            Engine eager(kChannels, true, 200, mode);
            Engine ref(kChannels, true, 200, mode);
            for (Engine *engine : {&lazy, &eager, &ref})
                engine->addCondition(1, test::planFor(*engine, program));

            Rng rng(41);
            const std::size_t nch = kChannels.size();
            std::vector<double> values(nch);
            std::size_t wave = 0;
            bool woke_first = false, woke_last = false, woke_single = false;
            for (std::size_t count : {7, 64, 1, 64, 1, 2, 63, 64, 65}) {
                std::vector<double> packed(nch * count);
                std::vector<double> times(count);
                std::vector<WakeEvent> want;
                for (std::size_t w = 0; w < count; ++w) {
                    fillWave(rng, static_cast<int>(wave + w), values);
                    for (std::size_t c = 0; c < nch; ++c)
                        packed[c * count + w] = values[c];
                    // The eager stamp: the expression the evenly
                    // spaced overload evaluates per waking wave.
                    times[w] = (t0 + static_cast<double>(wave) * dt) +
                               static_cast<double>(w) * dt;
                    ref.pushSamples(values, times[w]);
                    for (const WakeEvent &event : ref.drainWakeEvents()) {
                        want.push_back(event);
                        woke_first = woke_first || (w == 0 && count > 1);
                        woke_last = woke_last || (w == count - 1 && count > 1);
                        woke_single = woke_single || count == 1;
                    }
                }
                const double block_t0 =
                    t0 + static_cast<double>(wave) * dt;
                lazy.pushBlock(packed.data(), count, block_t0, dt);
                eager.pushBlock(packed.data(), count, times.data());
                for (Engine *engine : {&lazy, &eager}) {
                    const auto got = engine->drainWakeEvents();
                    ASSERT_EQ(got.size(), want.size()) << "wave " << wave;
                    for (std::size_t e = 0; e < got.size(); ++e) {
                        EXPECT_EQ(got[e].timestamp, want[e].timestamp);
                        EXPECT_EQ(got[e].value, want[e].value);
                    }
                    EXPECT_EQ(engine->rawSnapshot(1), ref.rawSnapshot(1));
                }
                wave += count;
            }
            EXPECT_TRUE(woke_first && woke_last && woke_single) << il_text;
        }
    }
}

TEST(HubBlock, ReplayTraceStampsEqualTraceTimes)
{
    // 193 samples replay as blocks of 64, 64, 64 and 1; at 50 Hz
    // Trace::timeOf is inexact, so only the identical expression
    // reproduces the per-sample stamps. kBlockStartIl wakes on wave 0
    // of the second and third blocks and on the count == 1 tail,
    // kEighthWaveIl on the last wave of every full block.
    trace::Trace run;
    run.sampleRateHz = 50.0;
    for (const auto &channel : kChannels)
        run.channelNames.push_back(channel.name);
    run.channels.assign(kChannels.size(), std::vector<double>(193));
    Rng rng(43);
    std::vector<double> values(kChannels.size());
    for (std::size_t i = 0; i < 193; ++i) {
        fillWave(rng, static_cast<int>(i), values);
        for (std::size_t c = 0; c < values.size(); ++c)
            run.channels[c][i] = values[c];
    }

    for (const char *il_text : {kBlockStartIl, kEighthWaveIl, kEveryWaveIl}) {
        for (KernelMode mode :
             {KernelMode::Float64, KernelMode::FixedQ15}) {
            const il::Program program = il::parse(il_text);
            Engine replayed(kChannels, true, 200, mode);
            Engine ref(kChannels, true, 200, mode);
            replayed.addCondition(1, test::planFor(replayed, program));
            ref.addCondition(1, test::planFor(ref, program));

            std::vector<WakeEvent> got;
            sim::detail::replayTrace(
                replayed, run,
                [&got](const WakeEvent &event) { got.push_back(event); });
            std::vector<WakeEvent> want;
            for (std::size_t i = 0; i < run.sampleCount(); ++i) {
                for (std::size_t c = 0; c < values.size(); ++c)
                    values[c] = run.channels[c][i];
                ref.pushSamples(values, run.timeOf(i));
                for (const WakeEvent &event : ref.drainWakeEvents())
                    want.push_back(event);
            }
            ASSERT_EQ(got.size(), want.size()) << il_text;
            EXPECT_FALSE(want.empty());
            for (std::size_t e = 0; e < got.size(); ++e) {
                EXPECT_EQ(got[e].timestamp, want[e].timestamp);
                EXPECT_EQ(got[e].value, want[e].value);
            }
            EXPECT_EQ(replayed.rawSnapshot(1), ref.rawSnapshot(1));
        }
    }
}

TEST(HubBlock, EvenlySpacedOverloadMatchesExplicitTimestamps)
{
    const il::Program program = il::parse(kMotionIl);
    Engine a(kChannels, true);
    Engine b(kChannels, true);
    a.addCondition(1, test::planFor(a, program));
    b.addCondition(1, test::planFor(b, program));

    Rng rng(31);
    const std::size_t nch = kChannels.size();
    const std::size_t count = 256;
    std::vector<double> values(nch);
    std::vector<double> packed(nch * count);
    std::vector<double> times(count);
    const double dt = 0.02;
    for (std::size_t w = 0; w < count; ++w) {
        fillWave(rng, static_cast<int>(w), values);
        for (std::size_t c = 0; c < nch; ++c)
            packed[c * count + w] = values[c];
        times[w] = 5.0 + static_cast<double>(w) * dt;
    }
    a.pushBlock(packed.data(), count, times.data());
    b.pushBlock(packed.data(), count, 5.0, dt);

    const auto ea = a.drainWakeEvents();
    const auto eb = b.drainWakeEvents();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t e = 0; e < ea.size(); ++e) {
        EXPECT_EQ(ea[e].timestamp, eb[e].timestamp);
        EXPECT_EQ(ea[e].value, eb[e].value);
    }
}

TEST(HubBlock, Q15EngineRamAccountingMatchesPlanModel)
{
    // The analyzer charges 2 bytes per retained sample
    // (il::nodeRamBytes); dsp::Q15 is that sample, and a FixedQ15
    // engine's accounting must land on the same plan numbers the
    // admission path gates on.
    static_assert(sizeof(dsp::Q15) == 2);

    const il::Program program = il::parse(kMotionIl);
    const il::ExecutionPlan plan =
        il::lower(program, kChannels, il::LowerOptions{true});

    Engine fixed(kChannels, true, 200, KernelMode::FixedQ15);
    fixed.addCondition(1, plan);
    EXPECT_EQ(fixed.estimatedRamBytes(), plan.cost().ramBytes);
    EXPECT_EQ(fixed.kernelMode(), KernelMode::FixedQ15);

    // Same plan, same accounting in the reference mode: the RAM
    // model is the firmware (Q15) footprint in both.
    Engine floating(kChannels, true, 200, KernelMode::Float64);
    floating.addCondition(1, plan);
    EXPECT_EQ(floating.estimatedRamBytes(), fixed.estimatedRamBytes());
}

TEST(HubBlock, Q15WakeEventsTrackDoublePipelineOnShippedAudioApps)
{
    // The Q15 pipeline is the firmware sample format of the audio
    // hub: microphone samples are natively in [-1, 1), so the three
    // audio applications run the fixed-point kernels at their real
    // input scale. (Accelerometer traces carry values far outside
    // ±1 and would saturate at quantization — the Q15 mode is not
    // the deployment format for those chains.)
    //
    // Documented tolerance: driving both modes with the identical
    // trace, every double-pipeline wake must have a Q15 wake within
    // 0.75 s (a few 256-point hops at 4 kHz), with at least 90%
    // matched and total counts within 15% plus small absolute slack.
    trace::AudioTraceConfig config;
    config.environment = trace::AudioEnvironment::Office;
    config.durationSeconds = 120.0;
    config.seed = 42;
    config.phraseProbability = 0.5;
    const trace::Trace audio = trace::generateAudioTrace(config);

    std::size_t total_double_wakes = 0;
    for (const auto &app : apps::audioApps()) {
        const il::Program p = app->wakeCondition().compile();
        Engine floating(app->channels(), true);
        Engine fixed(app->channels(), true, 200,
                     KernelMode::FixedQ15);
        floating.addCondition(1, test::planFor(floating, p));
        fixed.addCondition(1, test::planFor(fixed, p));

        const std::size_t channel =
            audio.channelIndex(app->channels().front().name);
        std::vector<double> values(1);
        std::vector<double> want_times;
        std::vector<double> got_times;
        for (std::size_t i = 0; i < audio.sampleCount(); ++i) {
            values[0] = audio.channels[channel][i];
            const double t = audio.timeOf(i);
            floating.pushSamples(values, t);
            fixed.pushSamples(values, t);
            for (const auto &event : floating.drainWakeEvents())
                want_times.push_back(event.timestamp);
            for (const auto &event : fixed.drainWakeEvents())
                got_times.push_back(event.timestamp);
        }
        total_double_wakes += want_times.size();

        const double slack =
            0.15 * static_cast<double>(want_times.size()) + 4.0;
        EXPECT_NEAR(static_cast<double>(got_times.size()),
                    static_cast<double>(want_times.size()), slack)
            << app->name();

        std::size_t matched = 0;
        std::size_t cursor = 0;
        for (double t : want_times) {
            while (cursor < got_times.size() &&
                   got_times[cursor] < t - 0.75)
                ++cursor;
            if (cursor < got_times.size() &&
                std::abs(got_times[cursor] - t) <= 0.75)
                ++matched;
        }
        if (!want_times.empty()) {
            EXPECT_GE(static_cast<double>(matched),
                      0.9 * static_cast<double>(want_times.size()))
                << app->name() << " matched " << matched << "/"
                << want_times.size();
        }
    }
    // The traces must actually exercise the wake path.
    EXPECT_GT(total_double_wakes, 0u);
}

} // namespace
} // namespace sidewinder::hub
