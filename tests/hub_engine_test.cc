/**
 * @file
 * Unit and integration tests for the hub dataflow engine: Figure 2
 * semantics, hasResult propagation, conditional chains, combinators,
 * node sharing and removal.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "engine_plan.h"
#include "hub/engine.h"
#include "il/delta.h"
#include "il/parser.h"
#include "il/writer.h"
#include "support/error.h"

namespace sidewinder::hub {
namespace {

std::vector<il::ChannelInfo>
accelChannels()
{
    return {{"ACC_X", 50.0}, {"ACC_Y", 50.0}, {"ACC_Z", 50.0}};
}

const char *significantMotionIl =
    "ACC_X -> movingAvg(id=1, params={10});\n"
    "ACC_Y -> movingAvg(id=2, params={10});\n"
    "ACC_Z -> movingAvg(id=3, params={10});\n"
    "1,2,3 -> vectorMagnitude(id=4);\n"
    "4 -> minThreshold(id=5, params={15});\n"
    "5 -> OUT;\n";

TEST(Engine, RequiresChannels)
{
    EXPECT_THROW(Engine({}), ConfigError);
}

TEST(Engine, RejectsDuplicateConditionIds)
{
    Engine engine(accelChannels());
    const il::ExecutionPlan plan =
        test::planFor(engine, il::parse(significantMotionIl));
    engine.addCondition(1, plan);
    EXPECT_THROW(engine.addCondition(1, plan), ConfigError);
}

TEST(Engine, RejectsInvalidProgram)
{
    Engine engine(accelChannels());
    EXPECT_THROW(
        engine.addCondition(
            1, test::planFor(engine, il::parse("ACC_X -> bogus(id=1);\n"
                                               "1 -> OUT;\n"))),
        SidewinderError);
}

TEST(Engine, RejectsWrongSampleArity)
{
    Engine engine(accelChannels());
    EXPECT_THROW(engine.pushSamples({1.0}, 0.0), ConfigError);
}

TEST(Engine, SignificantMotionFiresAboveThreshold)
{
    Engine engine(accelChannels());
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));

    // Magnitude of (1,1,1)*10-sample average = sqrt(3) < 15: silent.
    for (int i = 0; i < 20; ++i)
        engine.pushSamples({1.0, 1.0, 1.0}, i * 0.02);
    EXPECT_TRUE(engine.drainWakeEvents().empty());

    // Magnitude of (10,10,10) = 17.3 >= 15: fires once per sample
    // after the windows refill with large values.
    for (int i = 0; i < 20; ++i)
        engine.pushSamples({10.0, 10.0, 10.0}, 1.0 + i * 0.02);
    const auto events = engine.drainWakeEvents();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().conditionId, 1);
    EXPECT_GE(events.front().value, 15.0);
}

TEST(Engine, MovingAverageWarmupSuppressesOutput)
{
    // Section 3.5: no result until the window has N points; OUT must
    // not fire during warmup even with large samples.
    Engine engine(accelChannels());
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    for (int i = 0; i < 9; ++i)
        engine.pushSamples({20.0, 20.0, 20.0}, i * 0.02);
    EXPECT_TRUE(engine.drainWakeEvents().empty());
    engine.pushSamples({20.0, 20.0, 20.0}, 0.18);
    EXPECT_EQ(engine.drainWakeEvents().size(), 1u);
}

TEST(Engine, WindowedChainFiresAtFrameCadence)
{
    Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(
        1, test::planFor(engine,
                         il::parse("AUDIO -> window(id=1, params={8});\n"
                                   "1 -> rms(id=2);\n"
                                   "2 -> minThreshold(id=3, params={0});\n"
                                   "3 -> OUT;\n")));
    for (int i = 0; i < 24; ++i)
        engine.pushSamples({1.0}, i * 0.00025);
    // 24 samples / window 8 = 3 firings.
    EXPECT_EQ(engine.drainWakeEvents().size(), 3u);
}

TEST(Engine, ConsecutiveCountsFramesAndResetsOnMiss)
{
    Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(
        1, test::planFor(engine,
                         il::parse("AUDIO -> window(id=1, params={4});\n"
                                   "1 -> rms(id=2);\n"
                                   "2 -> minThreshold(id=3, params={0.5});\n"
                                   "3 -> consecutive(id=4, params={3});\n"
                                   "4 -> OUT;\n")));

    auto push_frame = [&](double level) {
        for (int i = 0; i < 4; ++i)
            engine.pushSamples({level}, 0.0);
    };

    // Two loud frames, a quiet one, then three loud: only the second
    // run of three reaches the consecutive target.
    push_frame(1.0);
    push_frame(1.0);
    push_frame(0.0);
    EXPECT_TRUE(engine.drainWakeEvents().empty());
    push_frame(1.0);
    push_frame(1.0);
    EXPECT_TRUE(engine.drainWakeEvents().empty());
    push_frame(1.0);
    EXPECT_EQ(engine.drainWakeEvents().size(), 1u);

    // Sustained passing emits only the crossing, not every frame.
    push_frame(1.0);
    push_frame(1.0);
    EXPECT_TRUE(engine.drainWakeEvents().empty());

    // A miss re-arms the crossing.
    push_frame(0.0);
    push_frame(1.0);
    push_frame(1.0);
    push_frame(1.0);
    EXPECT_EQ(engine.drainWakeEvents().size(), 1u);
}

TEST(Engine, AndRequiresBothBranches)
{
    Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(
        1, test::planFor(engine,
                         il::parse("AUDIO -> window(id=1, params={4});\n"
                                   "1 -> rms(id=2);\n"
                                   "2 -> minThreshold(id=3, params={0.5});\n"
                                   "AUDIO -> window(id=4, params={4});\n"
                                   "4 -> max(id=5);\n"
                                   "5 -> maxThreshold(id=6, params={2.0});\n"
                                   "3,6 -> and(id=7);\n"
                                   "7 -> OUT;\n")));

    auto push_frame = [&](double level) {
        for (int i = 0; i < 4; ++i)
            engine.pushSamples({level}, 0.0);
    };

    push_frame(0.1); // rms too low -> branch 3 misses
    EXPECT_TRUE(engine.drainWakeEvents().empty());
    push_frame(3.0); // max too high -> branch 6 misses
    EXPECT_TRUE(engine.drainWakeEvents().empty());
    push_frame(1.0); // both pass
    EXPECT_EQ(engine.drainWakeEvents().size(), 1u);
}

TEST(Engine, OrFiresOnEitherBranch)
{
    Engine engine(accelChannels());
    engine.addCondition(
        1, test::planFor(engine,
                         il::parse("ACC_X -> minThreshold(id=1, params={5});\n"
                                   "ACC_Y -> minThreshold(id=2, params={5});\n"
                                   "1,2 -> or(id=3);\n"
                                   "3 -> OUT;\n")));

    engine.pushSamples({0.0, 0.0, 0.0}, 0.0);
    EXPECT_TRUE(engine.drainWakeEvents().empty());
    engine.pushSamples({9.0, 0.0, 0.0}, 0.1);
    EXPECT_EQ(engine.drainWakeEvents().size(), 1u);
    engine.pushSamples({0.0, 9.0, 0.0}, 0.2);
    EXPECT_EQ(engine.drainWakeEvents().size(), 1u);
}

TEST(Engine, SharesIdenticalNodesAcrossConditions)
{
    Engine engine(accelChannels(), /*share_nodes=*/true);
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    const std::size_t solo = engine.nodeCount();
    engine.addCondition(
        2, test::planFor(engine, il::parse(significantMotionIl)));
    // Identical program: every node is shared.
    EXPECT_EQ(engine.nodeCount(), solo);

    // Both conditions fire from the shared graph.
    for (int i = 0; i < 10; ++i)
        engine.pushSamples({20.0, 20.0, 20.0}, i * 0.02);
    const auto events = engine.drainWakeEvents();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_NE(events[0].conditionId, events[1].conditionId);
}

TEST(Engine, SharesCommonPrefixOnly)
{
    Engine engine(accelChannels(), true);
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    const std::size_t solo = engine.nodeCount();
    // Same pipeline, different threshold: shares all but the last.
    engine.addCondition(
        2, test::planFor(engine,
                         il::parse("ACC_X -> movingAvg(id=1, params={10});\n"
                                   "ACC_Y -> movingAvg(id=2, params={10});\n"
                                   "ACC_Z -> movingAvg(id=3, params={10});\n"
                                   "1,2,3 -> vectorMagnitude(id=4);\n"
                                   "4 -> minThreshold(id=5, params={25});\n"
                                   "5 -> OUT;\n")));
    EXPECT_EQ(engine.nodeCount(), solo + 1);
}

TEST(Engine, SharingDisabledDuplicatesNodes)
{
    Engine engine(accelChannels(), /*share_nodes=*/false);
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    const std::size_t solo = engine.nodeCount();
    engine.addCondition(
        2, test::planFor(engine, il::parse(significantMotionIl)));
    EXPECT_EQ(engine.nodeCount(), 2 * solo);
}

TEST(Engine, RemoveFreesUnsharedNodes)
{
    Engine engine(accelChannels(), true);
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    const std::size_t solo = engine.nodeCount();
    engine.addCondition(
        2, test::planFor(engine, il::parse(significantMotionIl)));
    engine.removeCondition(2);
    EXPECT_EQ(engine.nodeCount(), solo);
    engine.removeCondition(1);
    EXPECT_EQ(engine.nodeCount(), 0u);
    EXPECT_THROW(engine.removeCondition(1), ConfigError);
}

TEST(Engine, NodeTableStaysTheSizeOfWhatIsLive)
{
    // Node indices are what exportSubgraph() memoizes, so they show the
    // node table's extent. Remove/re-add and staged updates of two
    // conditions, freeing slots in front of live nodes and behind them,
    // must leave every live index below the live node count, the nodes
    // in install order (the cycle estimate sums over them in that
    // order) and the wakes those of a freshly built engine.
    const il::Program motion = il::parse(significantMotionIl);
    const il::Program steps =
        il::parse("ACC_Z -> movingAvg(id=1, params={4});\n"
                  "1 -> localMaxima(id=2, params={0.5, 100});\n"
                  "2 -> OUT;\n");
    const il::Program raised = il::parse(
        "ACC_Z -> movingAvg(id=1, params={4});\n"
        "1 -> localMaxima(id=2, params={0.75, 100});\n"
        "2 -> OUT;\n");
    Engine churned(accelChannels(), true);
    churned.addCondition(1, test::planFor(churned, motion));
    churned.addCondition(2, test::planFor(churned, steps));
    for (int round = 0; round < 50; ++round) {
        churned.removeCondition(2);
        churned.addCondition(2, test::planFor(churned, steps));
        churned.stageCondition(2, test::planFor(churned, raised));
        churned.commitStaged();
        churned.stageCondition(2, test::planFor(churned, steps));
        churned.commitStaged();
        churned.removeCondition(1);
        churned.addCondition(1, test::planFor(churned, motion));
    }

    // The last round re-added motion after steps.
    Engine fresh(accelChannels(), true);
    fresh.addCondition(2, test::planFor(fresh, steps));
    fresh.addCondition(1, test::planFor(fresh, motion));
    ASSERT_EQ(churned.nodeCount(), fresh.nodeCount());
    EXPECT_EQ(churned.estimatedCyclesPerSecond(),
              fresh.estimatedCyclesPerSecond());

    // Both conditions' cones, exported from each engine: the same
    // statements, and no index past the live nodes.
    const auto export_cones = [&](const Engine &engine,
                                  std::unordered_map<int, il::NodeId>
                                      &emitted) {
        il::Program out;
        il::NodeId next_id = 1;
        for (const il::Program *program : {&motion, &steps}) {
            const il::ExecutionPlan plan = test::planFor(engine, *program);
            engine.exportSubgraph(
                il::shareKeyHash(plan.shareKeys[static_cast<std::size_t>(
                    plan.outNode)]),
                out, next_id, emitted);
        }
        return il::write(out);
    };
    std::unordered_map<int, il::NodeId> emitted;
    std::unordered_map<int, il::NodeId> fresh_emitted;
    EXPECT_EQ(export_cones(churned, emitted),
              export_cones(fresh, fresh_emitted));
    EXPECT_EQ(emitted.size(), churned.nodeCount());
    for (const auto &[index, id] : emitted)
        EXPECT_LT(static_cast<std::size_t>(index), churned.nodeCount())
            << "statement " << id;

    for (int i = 0; i < 400; ++i) {
        const double v = 18.0 * std::sin(0.3 * i);
        churned.pushSamples({v, -v, v}, i * 0.02);
        fresh.pushSamples({v, -v, v}, i * 0.02);
    }
    const auto got = churned.drainWakeEvents();
    const auto want = fresh.drainWakeEvents();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_FALSE(want.empty());
    for (std::size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].conditionId, want[e].conditionId);
        EXPECT_EQ(got[e].timestamp, want[e].timestamp);
        EXPECT_EQ(got[e].value, want[e].value);
    }
}

TEST(Engine, RemovedConditionStopsFiring)
{
    Engine engine(accelChannels());
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    engine.removeCondition(1);
    for (int i = 0; i < 20; ++i)
        engine.pushSamples({20.0, 20.0, 20.0}, i * 0.02);
    EXPECT_TRUE(engine.drainWakeEvents().empty());
}

TEST(Engine, SurvivingConditionUnaffectedByRemoval)
{
    Engine engine(accelChannels(), true);
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    engine.addCondition(
        2, test::planFor(engine, il::parse(significantMotionIl)));
    engine.removeCondition(1);
    for (int i = 0; i < 10; ++i)
        engine.pushSamples({20.0, 20.0, 20.0}, i * 0.02);
    const auto events = engine.drainWakeEvents();
    ASSERT_FALSE(events.empty());
    for (const auto &event : events)
        EXPECT_EQ(event.conditionId, 2);
}

TEST(Engine, RawSnapshotReturnsPrimaryChannelHistory)
{
    Engine engine(accelChannels(), true, 4);
    engine.addCondition(
        1, test::planFor(
               engine, il::parse("ACC_Y -> minThreshold(id=1, params={100});\n"
                                 "1 -> OUT;\n")));
    for (int i = 0; i < 6; ++i)
        engine.pushSamples({0.0, static_cast<double>(i), 0.0},
                           i * 0.02);
    const auto snap = engine.rawSnapshot(1);
    // Primary channel is ACC_Y; the buffer retains the last 4.
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_DOUBLE_EQ(snap.front(), 2.0);
    EXPECT_DOUBLE_EQ(snap.back(), 5.0);
}

TEST(Engine, CycleEstimateGrowsWithConditionsAndSharing)
{
    Engine shared(accelChannels(), true);
    Engine unshared(accelChannels(), false);
    const auto program = il::parse(significantMotionIl);
    shared.addCondition(1, test::planFor(shared, program));
    shared.addCondition(2, test::planFor(shared, program));
    unshared.addCondition(1, test::planFor(unshared, program));
    unshared.addCondition(2, test::planFor(unshared, program));
    EXPECT_GT(shared.estimatedCyclesPerSecond(), 0.0);
    EXPECT_NEAR(unshared.estimatedCyclesPerSecond(),
                2.0 * shared.estimatedCyclesPerSecond(), 1e-9);
}

TEST(Engine, DynamicCyclesAccumulate)
{
    Engine engine(accelChannels());
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));
    EXPECT_DOUBLE_EQ(engine.cyclesConsumed(), 0.0);
    engine.pushSamples({1.0, 1.0, 1.0}, 0.0);
    EXPECT_GT(engine.cyclesConsumed(), 0.0);
}

TEST(Engine, StaticEstimateMatchesValidateRates)
{
    // The unshared plan charges every statement as written.
    const double estimate =
        il::lower(il::parse(significantMotionIl), accelChannels(),
                  il::LowerOptions{false})
            .cost()
            .cyclesPerSecond;
    // 3 movingAvg (4 cycles) at 50 Hz + vectorMagnitude (6) at 50 Hz
    // + minThreshold (1) at 50 Hz.
    EXPECT_NEAR(estimate, 3 * 4 * 50.0 + 6 * 50.0 + 1 * 50.0, 1e-9);
}


TEST(Engine, ResetStateDropsSignalHistoryButKeepsConditions)
{
    Engine engine(accelChannels());
    engine.addCondition(
        1, test::planFor(engine, il::parse(significantMotionIl)));

    // Warm the windows nearly to firing, then reset.
    for (int i = 0; i < 9; ++i)
        engine.pushSamples({20.0, 20.0, 20.0}, i * 0.02);
    engine.resetState();
    EXPECT_TRUE(engine.hasCondition(1));
    EXPECT_DOUBLE_EQ(engine.cyclesConsumed(), 0.0);

    // One more sample must NOT fire: the warmup starts over.
    engine.pushSamples({20.0, 20.0, 20.0}, 1.0);
    EXPECT_TRUE(engine.drainWakeEvents().empty());

    // A full warmup fires again.
    for (int i = 0; i < 9; ++i)
        engine.pushSamples({20.0, 20.0, 20.0}, 2.0 + i * 0.02);
    EXPECT_FALSE(engine.drainWakeEvents().empty());
}

} // namespace
} // namespace sidewinder::hub
