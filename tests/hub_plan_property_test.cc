/**
 * @file
 * Differential properties of the plan-executing hub::Engine against
 * the frozen reference::LegacyEngine (the pre-ExecutionPlan AST
 * interpreter): bit-identical wake events, values, and raw buffers
 * over every predefined application and over fuzzed IL, in both
 * sharing modes. Also pins the plan/analyzer node-count agreement on
 * fuzzed programs and the remove/reinstall RAM accounting of shared
 * nodes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "il/analyze.h"
#include "il/lower.h"
#include "il/parser.h"
#include "il/plan.h"
#include "reference/legacy_engine.h"
#include "support/rng.h"

namespace sidewinder {
namespace {

const std::vector<il::ChannelInfo> kChannels = {{"ACC_X", 50.0},
                                                {"ACC_Y", 50.0},
                                                {"ACC_Z", 50.0},
                                                {"AUDIO", 4000.0},
                                                {"BARO", 20.0}};

/**
 * Drive both engines with an identical deterministic sample stream
 * and require bit-identical wake events (id, timestamp, value) and
 * raw snapshots for every installed condition.
 */
void
expectBitIdentical(hub::Engine &engine,
                   reference::LegacyEngine &legacy,
                   const std::vector<il::ChannelInfo> &channels,
                   const std::vector<int> &condition_ids,
                   std::uint64_t seed, int waves)
{
    Rng rng(seed);
    std::vector<double> values(channels.size());
    std::size_t wake_count = 0;

    for (int i = 0; i < waves; ++i) {
        const double t = i * 0.01;
        for (std::size_t c = 0; c < channels.size(); ++c)
            values[c] = std::sin(0.07 * i * (static_cast<double>(c) +
                                             1.0)) +
                        rng.gaussian(0.0, 0.3);
        engine.pushSamples(values, t);
        legacy.pushSamples(values, t);

        const auto got = engine.drainWakeEvents();
        const auto want = legacy.drainWakeEvents();
        ASSERT_EQ(got.size(), want.size()) << "wave " << i;
        for (std::size_t e = 0; e < got.size(); ++e) {
            EXPECT_EQ(got[e].conditionId, want[e].conditionId);
            EXPECT_EQ(got[e].timestamp, want[e].timestamp);
            EXPECT_EQ(got[e].value, want[e].value) << "wave " << i;
        }
        wake_count += got.size();
    }

    for (int id : condition_ids)
        EXPECT_EQ(engine.rawSnapshot(id), legacy.rawSnapshot(id))
            << "condition " << id;
    EXPECT_EQ(engine.nodeCount(), legacy.nodeCount());
    (void)wake_count;
}

TEST(PlanProperty, PredefinedAppsAreBitIdenticalToLegacy)
{
    for (bool share : {true, false}) {
        for (const auto &app : apps::allApps()) {
            const il::Program p = app->wakeCondition().compile();
            hub::Engine engine(app->channels(), share);
            reference::LegacyEngine legacy(app->channels(), share);
            engine.addCondition(1, test::planFor(engine, p));
            legacy.addCondition(1, p);
            expectBitIdentical(engine, legacy, app->channels(), {1},
                               7, 4000);
        }
    }
}

TEST(PlanProperty, ExtendedAppsAreBitIdenticalToLegacy)
{
    const std::unique_ptr<apps::Application> extended[] = {
        apps::makeGestureApp(), apps::makeFloorsApp()};
    for (bool share : {true, false}) {
        for (const auto &app : extended) {
            const il::Program p = app->wakeCondition().compile();
            hub::Engine engine(app->channels(), share);
            reference::LegacyEngine legacy(app->channels(), share);
            engine.addCondition(1, test::planFor(engine, p));
            legacy.addCondition(1, p);
            expectBitIdentical(engine, legacy, app->channels(), {1},
                               11, 4000);
        }
    }
}

TEST(PlanProperty, SirenWakesAlikeOnSharingAndNonSharingEngines)
{
    // Siren's three branches share a window/high-pass/FFT prefix: the
    // sharing engine merges it, and not one wake may move.
    const auto app = apps::makeSirenApp();
    const il::Program p = app->wakeCondition().compile();
    hub::Engine shared(app->channels(), true);
    hub::Engine unshared(app->channels(), false);
    shared.addCondition(1, test::planFor(shared, p));
    unshared.addCondition(1, test::planFor(unshared, p));
    EXPECT_LT(shared.nodeCount(), unshared.nodeCount());

    // 3 s at 4 kHz: a 1200 Hz tone in noise, silent from 1.5 s to 2 s.
    Rng rng(3);
    std::vector<double> wakes_shared, wakes_unshared;
    for (int i = 0; i < 12000; ++i) {
        const double t = i * 0.00025;
        const double tone =
            t < 1.5 || t >= 2.0
                ? std::sin(2.0 * std::numbers::pi * 1200.0 * t)
                : 0.0;
        const double v = tone + rng.gaussian(0.0, 0.2);
        shared.pushSamples({v}, t);
        unshared.pushSamples({v}, t);
        for (const auto &e : shared.drainWakeEvents())
            wakes_shared.push_back(e.timestamp);
        for (const auto &e : unshared.drainWakeEvents())
            wakes_unshared.push_back(e.timestamp);
    }
    EXPECT_FALSE(wakes_shared.empty());
    EXPECT_EQ(wakes_shared, wakes_unshared);
}

TEST(PlanProperty, ConcurrentAudioConditionsShareAndStayIdentical)
{
    // Multi-condition install on one engine: the cross-condition
    // sharing path (plan keys vs the legacy index keys) must agree.
    const auto channels = core::audioChannels();
    std::vector<il::Program> programs;
    for (const auto &app : apps::allApps())
        if (app->channels().size() == channels.size() &&
            app->channels().front().name == channels.front().name)
            programs.push_back(app->wakeCondition().compile());
    ASSERT_GE(programs.size(), 2u);

    for (bool share : {true, false}) {
        hub::Engine engine(channels, share);
        reference::LegacyEngine legacy(channels, share);
        std::vector<int> ids;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const int id = static_cast<int>(i) + 1;
            engine.addCondition(id, test::planFor(engine, programs[i]));
            legacy.addCondition(id, programs[i]);
            ids.push_back(id);
        }
        expectBitIdentical(engine, legacy, channels, ids, 13, 6000);
    }
}

// ---------------------------------------------------------------------
// Block execution: pushBlock(K) against the per-sample wave loop on
// the same engine type. The contract is bit-identity — same wake
// events in the same order, same raw history — for every block size,
// including K=1 and a ragged final block.

/**
 * Drive @p ref one sample at a time and @p block_engine in blocks of
 * @p block_size waves (channel-major lanes), requiring bit-identical
 * wake-event streams at every block boundary and identical raw
 * snapshots afterward.
 */
void
expectBlockIdentical(hub::Engine &block_engine, hub::Engine &ref,
                     const std::vector<il::ChannelInfo> &channels,
                     const std::vector<int> &condition_ids,
                     std::uint64_t seed, int waves,
                     std::size_t block_size)
{
    Rng rng(seed);
    const std::size_t nch = channels.size();
    std::vector<double> values(nch);
    std::vector<std::vector<double>> lanes(nch);
    std::vector<double> times;
    std::vector<double> packed;
    std::vector<hub::WakeEvent> want;

    const auto flush = [&]() {
        const std::size_t count = times.size();
        if (count == 0)
            return;
        packed.resize(nch * count);
        for (std::size_t c = 0; c < nch; ++c) {
            std::copy(lanes[c].begin(), lanes[c].end(),
                      packed.begin() +
                          static_cast<std::ptrdiff_t>(c * count));
            lanes[c].clear();
        }
        block_engine.pushBlock(packed.data(), count, times.data());
        times.clear();

        const auto got = block_engine.drainWakeEvents();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t e = 0; e < got.size(); ++e) {
            EXPECT_EQ(got[e].conditionId, want[e].conditionId);
            EXPECT_EQ(got[e].timestamp, want[e].timestamp);
            EXPECT_EQ(got[e].value, want[e].value);
        }
        want.clear();
    };

    for (int i = 0; i < waves; ++i) {
        const double t = i * 0.01;
        for (std::size_t c = 0; c < nch; ++c) {
            values[c] = std::sin(0.07 * i * (static_cast<double>(c) +
                                             1.0)) +
                        rng.gaussian(0.0, 0.3);
            lanes[c].push_back(values[c]);
        }
        times.push_back(t);
        ref.pushSamples(values, t);
        for (const auto &event : ref.drainWakeEvents())
            want.push_back(event);
        if (times.size() == block_size)
            flush();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    flush(); // ragged tail when waves % block_size != 0

    for (int id : condition_ids)
        EXPECT_EQ(block_engine.rawSnapshot(id), ref.rawSnapshot(id))
            << "condition " << id;
    EXPECT_EQ(block_engine.nodeCount(), ref.nodeCount());
}

TEST(PlanProperty, BlockExecutionBitIdenticalOnAppsAcrossBlockSizes)
{
    for (bool share : {true, false}) {
        for (const auto &app : apps::allApps()) {
            const il::Program p = app->wakeCondition().compile();
            for (std::size_t k : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
                hub::Engine block_engine(app->channels(), share);
                hub::Engine ref(app->channels(), share);
                block_engine.addCondition(1, test::planFor(block_engine, p));
                ref.addCondition(1, test::planFor(ref, p));
                expectBlockIdentical(block_engine, ref,
                                     app->channels(), {1}, 7, 1500,
                                     k);
                ASSERT_FALSE(::testing::Test::HasFatalFailure())
                    << app->name() << " K=" << k
                    << " share=" << share;
            }
        }
    }
}

TEST(PlanProperty, BlockExecutionBitIdenticalOnConcurrentConditions)
{
    // Multi-condition audio engine: shared nodes, partial-firing
    // thresholds, and the wake scan visiting several out-nodes.
    const auto channels = core::audioChannels();
    std::vector<il::Program> programs;
    for (const auto &app : apps::allApps())
        if (app->channels().size() == channels.size() &&
            app->channels().front().name == channels.front().name)
            programs.push_back(app->wakeCondition().compile());
    ASSERT_GE(programs.size(), 2u);

    hub::Engine block_engine(channels, true);
    hub::Engine ref(channels, true);
    std::vector<int> ids;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const int id = static_cast<int>(i) + 1;
        block_engine.addCondition(id, test::planFor(block_engine, programs[i]));
        ref.addCondition(id, test::planFor(ref, programs[i]));
        ids.push_back(id);
    }
    expectBlockIdentical(block_engine, ref, channels, ids, 13, 6000,
                         64);
}

// ---------------------------------------------------------------------
// Fuzzed IL: random threshold pipelines over the prototype channels,
// with a duplicated branch half of the time to exercise dedupe.

/** One randomly parameterized chain: channel -> smooth -> threshold. */
struct ChainSpec
{
    int channel = 0;
    bool window = false;
    int avgLen = 5;
    bool minThr = true;
    double thrValue = 0.0;
    /** Window hop (0: the window's size). */
    int hop = 0;
    /** No threshold: the chain's head never blocks. */
    bool bare = false;
};

/**
 * @p block_kinds widens the chains for the block-loop properties:
 * window hops (so branches fire on different waves) and unthresholded
 * heads (so a multi-input node sees sparse producers that never block).
 */
ChainSpec
randomChain(Rng &rng, bool block_kinds)
{
    ChainSpec spec;
    spec.channel = static_cast<int>(rng.uniformInt(0, 4));
    spec.window = rng.uniform(0.0, 1.0) < (block_kinds ? 0.6 : 0.3);
    spec.avgLen = static_cast<int>(rng.uniformInt(2, 12));
    spec.minThr = rng.uniform(0.0, 1.0) < 0.5;
    spec.thrValue = rng.uniform(-0.8, 0.8);
    if (block_kinds) {
        spec.hop = static_cast<int>(rng.uniformInt(0, 2)) * 8;
        spec.bare = rng.uniform(0.0, 1.0) < 0.35;
    }
    return spec;
}

int
emitChain(std::ostringstream &out, const ChainSpec &spec, int &next_id)
{
    static const char *const kNames[5] = {"ACC_X", "ACC_Y", "ACC_Z",
                                          "AUDIO", "BARO"};
    std::string input = kNames[spec.channel];
    if (spec.window) {
        const int w = next_id++;
        out << input << " -> window(id=" << w << ", params={32";
        if (spec.hop != 0)
            out << ", 0, " << spec.hop;
        out << "});\n";
        const int r = next_id++;
        out << w << " -> rms(id=" << r << ");\n";
        input = std::to_string(r);
    } else {
        const int m = next_id++;
        out << input << " -> movingAvg(id=" << m << ", params={"
            << spec.avgLen << "});\n";
        input = std::to_string(m);
    }
    if (spec.bare)
        return next_id - 1;
    const int t = next_id++;
    out << input << " -> "
        << (spec.minThr ? "minThreshold" : "maxThreshold") << "(id=" << t
        << ", params={" << spec.thrValue << "});\n";
    return t;
}

/**
 * A random threshold pipeline. With @p block_kinds the heads also
 * combine through vectorMagnitude, and the chains vary as
 * randomChain() says — so the programs reach every block dispatch
 * kind: channel-fed (window, movingAvg), single-producer (rms,
 * thresholds), multi-input AllInputs over sparse or dense producers,
 * blocking or not (and, vectorMagnitude), and AnyInput/ObserveBlocks
 * (or, consecutive).
 */
std::string
fuzzProgram(Rng &rng, bool block_kinds = false)
{
    std::ostringstream out;
    int next_id = 1;
    std::vector<int> heads;

    const int chains = static_cast<int>(rng.uniformInt(1, 3));
    for (int c = 0; c < chains; ++c) {
        const ChainSpec spec = randomChain(rng, block_kinds);
        heads.push_back(emitChain(out, spec, next_id));
        // Half the time, duplicate the chain verbatim: the lowered
        // plan must collapse it while the raw install must not.
        if (rng.uniform(0.0, 1.0) < 0.5)
            heads.push_back(emitChain(out, spec, next_id));
    }

    while (heads.size() > 1) {
        const int a = heads.back();
        heads.pop_back();
        const int b = heads.back();
        heads.pop_back();
        const int o = next_id++;
        const double pick = rng.uniform(0.0, 1.0);
        const char *combine = pick < 0.5 ? "or" : "and";
        if (block_kinds && pick >= 0.75)
            combine = "vectorMagnitude";
        out << a << "," << b << " -> " << combine << "(id=" << o
            << ");\n";
        heads.push_back(o);
    }

    int head = heads.front();
    if (rng.uniform(0.0, 1.0) < 0.4) {
        const int k = next_id++;
        out << head << " -> consecutive(id=" << k << ", params={"
            << rng.uniformInt(1, 4) << "});\n";
        head = k;
    }
    out << head << " -> OUT;\n";
    return out.str();
}

TEST(PlanProperty, FuzzedProgramsAreBitIdenticalToLegacy)
{
    Rng gen(42);
    for (int trial = 0; trial < 25; ++trial) {
        const std::string text = fuzzProgram(gen);
        il::Program program;
        ASSERT_NO_THROW(program = il::parse(text)) << text;

        for (bool share : {true, false}) {
            hub::Engine engine(kChannels, share);
            reference::LegacyEngine legacy(kChannels, share);
            engine.addCondition(1, test::planFor(engine, program));
            legacy.addCondition(1, program);
            expectBitIdentical(engine, legacy, kChannels, {1},
                               100 + static_cast<std::uint64_t>(trial),
                               1500);
        }
    }
}

TEST(PlanProperty, FuzzedProgramsBlockBitIdenticalToPerSample)
{
    // The fuzzed programs mix AllInputs, AnyInput (or), and
    // ObserveBlocks (consecutive) nodes with thresholds that emit
    // Blocked waves — the partial-firing paths of the block loop —
    // and reach every block dispatch kind (see fuzzProgram()); 64- and
    // 65-wave blocks make windowed producers sparse.
    Rng gen(77);
    for (int trial = 0; trial < 24; ++trial) {
        const std::string text = fuzzProgram(gen, true);
        il::Program program;
        ASSERT_NO_THROW(program = il::parse(text)) << text;

        for (std::size_t k :
             {std::size_t{4}, std::size_t{64}, std::size_t{65}}) {
            hub::Engine block_engine(kChannels, true);
            hub::Engine ref(kChannels, true);
            block_engine.addCondition(1, test::planFor(block_engine, program));
            ref.addCondition(1, test::planFor(ref, program));
            expectBlockIdentical(
                block_engine, ref, kChannels, {1},
                200 + static_cast<std::uint64_t>(trial), 1500, k);
            ASSERT_FALSE(::testing::Test::HasFatalFailure())
                << text << "K=" << k;
        }
    }
}

TEST(PlanProperty, FuzzedPlanNodeCountMatchesAnalyzer)
{
    Rng gen(43);
    for (int trial = 0; trial < 25; ++trial) {
        const il::Program program = il::parse(fuzzProgram(gen));
        const il::AnalysisResult analysis =
            il::analyze(program, kChannels);
        ASSERT_TRUE(analysis.ok());
        EXPECT_EQ(il::lower(program, kChannels).nodeCount(),
                  analysis.cost.planNodeCount);
    }
}

// ---------------------------------------------------------------------
// Remove/reinstall accounting: freeing a condition must release
// exactly the unshared nodes, measured through the plan RAM numbers.

TEST(PlanProperty, RemoveReinstallFreesExactlyUnsharedNodes)
{
    const il::Program a =
        il::parse("ACC_X -> movingAvg(id=1, params={5});\n"
                  "1 -> minThreshold(id=2, params={2});\n"
                  "2 -> OUT;\n");
    const il::Program b =
        il::parse("ACC_X -> movingAvg(id=1, params={5});\n"
                  "1 -> maxThreshold(id=2, params={-2});\n"
                  "2 -> OUT;\n");

    hub::Engine engine(kChannels, true);
    const il::ExecutionPlan plan_a =
        il::lower(a, kChannels, il::LowerOptions{true});
    const il::ExecutionPlan plan_b =
        il::lower(b, kChannels, il::LowerOptions{true});

    engine.addCondition(1, plan_a);
    const std::size_t ram_a = engine.estimatedRamBytes();
    const std::size_t nodes_a = engine.nodeCount();
    EXPECT_EQ(nodes_a, 2u);
    EXPECT_EQ(ram_a, plan_a.cost().ramBytes);

    // B shares the movingAvg prefix, so its marginal footprint is
    // exactly its threshold node.
    const il::ProgramCost marginal_b = engine.marginalCost(plan_b);
    EXPECT_LT(marginal_b.ramBytes, plan_b.cost().ramBytes);

    engine.addCondition(2, plan_b);
    const std::size_t ram_ab = engine.estimatedRamBytes();
    EXPECT_EQ(ram_ab, ram_a + marginal_b.ramBytes);
    EXPECT_EQ(engine.nodeCount(), 3u);

    // Removing B frees exactly the unshared threshold node.
    engine.removeCondition(2);
    EXPECT_EQ(engine.estimatedRamBytes(), ram_a);
    EXPECT_EQ(engine.nodeCount(), nodes_a);

    // Reinstalling lands on the same accounting.
    engine.addCondition(2, plan_b);
    EXPECT_EQ(engine.estimatedRamBytes(), ram_ab);
    EXPECT_EQ(engine.nodeCount(), 3u);

    // Dropping A leaves B owning the shared prefix: B's standalone
    // footprint, not B's marginal one.
    engine.removeCondition(1);
    EXPECT_EQ(engine.estimatedRamBytes(), plan_b.cost().ramBytes);
    EXPECT_EQ(engine.nodeCount(), 2u);

    // The survivor still wakes.
    Rng rng(5);
    std::vector<double> values(kChannels.size());
    std::size_t wakes = 0;
    for (int i = 0; i < 500; ++i) {
        for (std::size_t c = 0; c < values.size(); ++c)
            values[c] = -3.0 + rng.gaussian(0.0, 0.1);
        engine.pushSamples(values, i * 0.02);
        wakes += engine.drainWakeEvents().size();
    }
    EXPECT_GT(wakes, 0u);
}

} // namespace
} // namespace sidewinder
