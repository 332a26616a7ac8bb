/**
 * @file
 * Tests for the fault-injection harness: the no-fault plan keeps the
 * simulator bit-identical to the fault-free fast path, fault runs are
 * deterministic in the seed, and the acceptance scenario of
 * docs/fault-model.md — byte corruption plus a mid-run hub brownout —
 * recovers all pushed conditions with bounded recall loss and nonzero
 * fault metrics. armLink's corruption hooks flip exactly the bytes the
 * per-byte chance(p) loop flips on the standard engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"
#include "trace/robot_gen.h"
#include "transport/link.h"

namespace sidewinder::sim {
namespace {

trace::Trace
robotTrace(double idle = 0.5, std::uint64_t seed = 42)
{
    trace::RobotRunConfig config;
    config.idleFraction = idle;
    config.durationSeconds = 180.0;
    config.seed = seed;
    return trace::generateRobotRun(config);
}

TEST(FaultPlan, DefaultPlanInjectsNothing)
{
    EXPECT_FALSE(FaultPlan{}.any());

    FaultPlan corrupt;
    corrupt.byteCorruptionRate = 1e-3;
    EXPECT_TRUE(corrupt.any());

    FaultPlan reset;
    reset.hubResetTimes = {60.0};
    EXPECT_TRUE(reset.any());

    FaultPlan stuck;
    stuck.stuckSensors = {{0, 10.0, 20.0}};
    EXPECT_TRUE(stuck.any());
}

TEST(FaultSim, NoFaultPlanIsBitIdenticalToFastPath)
{
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig plain;
    plain.strategy = Strategy::Sidewinder;
    SimConfig with_plan = plain;
    with_plan.faults = FaultPlan{}; // explicit no-fault plan

    const auto a = simulate(trace, *app, plain);
    const auto b = simulate(trace, *app, with_plan);

    EXPECT_EQ(a.hubTriggerCount, b.hubTriggerCount);
    EXPECT_EQ(a.averagePowerMw, b.averagePowerMw);
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.meanDetectionLatencySeconds,
              b.meanDetectionLatencySeconds);
    EXPECT_EQ(a.timeline.awakeSeconds, b.timeline.awakeSeconds);
    EXPECT_FALSE(b.faults.any());
}

TEST(FaultSim, FaultRunsAreDeterministic)
{
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    config.faults.byteCorruptionRate = 5e-4;
    config.faults.hubResetTimes = {90.0};
    config.faults.hubResetDowntimeSeconds = 8.0;

    const auto a = simulate(trace, *app, config);
    const auto b = simulate(trace, *app, config);

    EXPECT_EQ(a.hubTriggerCount, b.hubTriggerCount);
    EXPECT_EQ(a.averagePowerMw, b.averagePowerMw);
    EXPECT_EQ(a.recall, b.recall);
    EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
    EXPECT_EQ(a.faults.bytesCorrupted, b.faults.bytesCorrupted);
    EXPECT_EQ(a.faults.framesLost, b.faults.framesLost);
    EXPECT_EQ(a.faults.hubDownSeconds, b.faults.hubDownSeconds);
    EXPECT_EQ(a.faults.fallbackEnergyMj, b.faults.fallbackEnergyMj);

    // A different seed draws a different corruption pattern.
    SimConfig reseeded = config;
    reseeded.faults.seed = 0xABCDEF;
    const auto c = simulate(trace, *app, reseeded);
    EXPECT_NE(a.faults.bytesCorrupted, c.faults.bytesCorrupted);
}

TEST(FaultSim, AcceptanceScenarioRecoversWithBoundedRecallLoss)
{
    // The acceptance scenario of ISSUE 4 / docs/fault-model.md: the
    // Fig. 5 robot workload with 1e-3 per-byte corruption and one
    // scheduled brownout mid-run.
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig fault_free;
    fault_free.strategy = Strategy::Sidewinder;
    const auto baseline = simulate(trace, *app, fault_free);

    SimConfig faulty = fault_free;
    faulty.faults.byteCorruptionRate = 1e-3;
    faulty.faults.hubResetTimes = {60.0};
    faulty.faults.hubResetDowntimeSeconds = 10.0;
    const auto r = simulate(trace, *app, faulty);

    // The condition survived the reset: the supervisor re-pushed it
    // and the hub kept triggering after recovery.
    EXPECT_GE(r.faults.repushedConditions, 1u);
    EXPECT_EQ(r.faults.hubResets, 1u);
    EXPECT_GT(r.hubTriggerCount, 0u);

    // Degraded but bounded: recall within 10% of fault-free.
    EXPECT_GE(r.recall, 0.9 * baseline.recall);

    // The fault machinery visibly did work.
    EXPECT_GT(r.faults.bytesCorrupted, 0u);
    EXPECT_GT(r.faults.retransmits, 0u);
    EXPECT_GT(r.faults.hubDownSeconds, 0.0);
    EXPECT_LT(r.faults.hubDownSeconds, 30.0);
    EXPECT_GT(r.faults.fallbackAwakeSeconds, 0.0);
    EXPECT_GT(r.faults.fallbackEnergyMj, 0.0);
    EXPECT_TRUE(r.faults.any());

    // The fallback and retransmissions cost energy, never save it.
    EXPECT_GE(r.averagePowerMw, baseline.averagePowerMw * 0.99);
}

TEST(FaultSim, FaultFreeReconfigCommitsBetweenTwoWaves)
{
    // A live retune on the Fig. 5 robot workload with no faults: the
    // update must commit on the first attempt, ship fewer bytes than
    // a full re-push, and blind the hub for exactly one sample period
    // (the swap lands between two evaluation waves — no dropped
    // samples).
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    config.faults.reconfigUpdates = {{90.0, 0.8}};
    const auto r = simulate(trace, *app, config);

    EXPECT_EQ(r.faults.updatesCommitted, 1u);
    EXPECT_EQ(r.faults.updatesRolledBack, 0u);
    EXPECT_GT(r.faults.reconfigDeltaBytes, 0u);
    EXPECT_LT(r.faults.reconfigDeltaBytes, r.faults.reconfigFullBytes);
    EXPECT_GT(r.hubTriggerCount, 0u);

    // One sample period at the trace's accelerometer rate.
    const double period = trace.timeOf(1) - trace.timeOf(0);
    EXPECT_NEAR(r.faults.blindWindowSeconds, period, 1e-9);

    // Reconfiguration is a fault-plan axis, so the run reports it.
    EXPECT_TRUE(r.faults.any());
}

TEST(FaultSim, CorruptionDuringUpdateRetriesUntilCommitted)
{
    // The acceptance axis of the live-reconfiguration issue: 1e-3
    // per-byte corruption applied only while an update transaction is
    // in flight. A mangled delta or commit rolls the transaction back
    // (CRC failure or stale staging), and the driver retries under a
    // fresh epoch until the hub lands on the B plan. The hub must
    // never end up on a mix of the two.
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    config.faults.reconfigUpdates = {{60.0, 0.8}};
    config.faults.updateCorruptionRate = 1e-3;
    const auto r = simulate(trace, *app, config);

    // However many retries it took, the update eventually committed
    // and the hub kept triggering on a coherent plan.
    EXPECT_GE(r.faults.updatesCommitted, 1u);
    EXPECT_GT(r.hubTriggerCount, 0u);
    EXPECT_GT(r.recall, 0.0);

    // Determinism in the seed, rollbacks and all.
    const auto again = simulate(trace, *app, config);
    EXPECT_EQ(r.faults.updatesCommitted, again.faults.updatesCommitted);
    EXPECT_EQ(r.faults.updatesRolledBack,
              again.faults.updatesRolledBack);
    EXPECT_EQ(r.faults.bytesCorrupted, again.faults.bytesCorrupted);
    EXPECT_EQ(r.hubTriggerCount, again.hubTriggerCount);
}

TEST(FaultSim, FrameDropsAreRetransmitted)
{
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    config.faults.frameDropRate = 0.05;
    const auto r = simulate(trace, *app, config);

    EXPECT_GT(r.faults.framesDropped, 0u);
    EXPECT_GT(r.faults.retransmits, 0u);
    EXPECT_GT(r.recall, 0.0);
}

TEST(FaultSim, StuckSensorSuppressesTriggers)
{
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    const auto healthy = simulate(trace, *app, config);

    // Freeze all three accelerometer axes for most of the run: the
    // magnitude pipeline sees a constant and the hub goes quiet for
    // that window.
    SimConfig stuck = config;
    stuck.faults.stuckSensors = {
        {0, 20.0, 170.0}, {1, 20.0, 170.0}, {2, 20.0, 170.0}};
    const auto r = simulate(trace, *app, stuck);

    EXPECT_LT(r.hubTriggerCount, healthy.hubTriggerCount);
    EXPECT_LT(r.recall, healthy.recall);
}

TEST(FaultSim, StuckSensorValidation)
{
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    config.faults.stuckSensors = {{9, 10.0, 20.0}}; // no such channel
    EXPECT_THROW(simulate(trace, *app, config), ConfigError);

    config.faults.stuckSensors = {{0, 20.0, 20.0}}; // empty window
    EXPECT_THROW(simulate(trace, *app, config), ConfigError);
}

TEST(FaultSim, FaultsRequireSidewinderOnMcu)
{
    const auto trace = robotTrace();
    const auto app = apps::makeStepsApp();

    SimConfig config;
    config.strategy = Strategy::DutyCycling;
    config.faults.byteCorruptionRate = 1e-3;
    EXPECT_THROW(simulate(trace, *app, config), ConfigError);

    config.strategy = Strategy::Sidewinder;
    config.hubBackend = HubBackend::Fpga;
    EXPECT_THROW(simulate(trace, *app, config), ConfigError);

    // The placer homes steps on the iCE40 fabric, which has no hub
    // runtime for the transport stack to supervise.
    config.hubBackend = HubBackend::Heterogeneous;
    EXPECT_THROW(simulate(trace, *app, config), ConfigError);
}

/**
 * The corruption loop byteCorruptor must reproduce: per byte, a
 * bernoulli_distribution(p) draw on the standard engine, and on a hit
 * a bit from uniform_int_distribution(0, 7).
 */
void
chanceLoopCorrupt(std::mt19937_64 &engine, double p,
                  std::span<std::uint8_t> bytes)
{
    for (std::uint8_t &byte : bytes) {
        std::bernoulli_distribution hit(p);
        if (hit(engine)) {
            std::uniform_int_distribution<std::int64_t> bit(0, 7);
            byte = static_cast<std::uint8_t>(byte ^ (1u << bit(engine)));
        }
    }
}

/**
 * Run byteCorruptor and the chance loop side by side over ~@p total
 * bytes in mixed send sizes, the raised flag toggling between sends,
 * and require the same flips and the same stream position after.
 */
void
expectChanceLoopStream(double rate, double raised_rate, bool with_flag,
                       std::size_t total)
{
    constexpr std::uint64_t seed = 0x5EED5EED;
    const std::size_t sizes[] = {1, 8, 20, 1230, 1500};
    auto raised = std::make_shared<bool>(false);
    auto rng = std::make_shared<Rng>(seed);
    const auto hook = byteCorruptor(rng, rate, raised_rate,
                                    with_flag ? raised : nullptr);
    std::mt19937_64 oracle(seed);
    std::size_t sent = 0;
    std::size_t flipped = 0;
    for (std::size_t send = 0; sent < total; ++send) {
        std::vector<std::uint8_t> bytes(sizes[send % std::size(sizes)]);
        for (std::size_t i = 0; i < bytes.size(); ++i)
            bytes[i] = static_cast<std::uint8_t>(sent + i);
        std::vector<std::uint8_t> expected = bytes;
        *raised = send % 3 == 1;
        hook(bytes);
        chanceLoopCorrupt(oracle,
                          with_flag && *raised ? raised_rate : rate,
                          expected);
        ASSERT_EQ(bytes, expected) << "rate " << rate << " send " << send;
        for (std::size_t i = 0; i < bytes.size(); ++i)
            flipped += bytes[i] != static_cast<std::uint8_t>(sent + i);
        sent += bytes.size();
    }
    EXPECT_EQ(rng->next(), oracle()) << "rate " << rate;
    if (rate > 0.0) {
        EXPECT_GT(flipped, 0u) << "rate " << rate;
    }
}

TEST(ArmLink, CorruptorFlipsWhatTheChanceLoopFlips)
{
    // The faults workload's corruption rates, each raised by an
    // update's 1e-3 while the flag is set; rate 0 is its reconfig
    // cell, whose line corrupts only during updates.
    for (double rate : {0.0, 1e-4, 5e-4, 1e-3, 2e-3, 5e-3})
        expectChanceLoopStream(rate, rate + 1e-3, true, 1u << 20);
    // armLink without an update flag.
    expectChanceLoopStream(1e-3, 1e-3, false, 1u << 18);
    // Every output hits, including all-ones, where x < threshold
    // alone would miss.
    expectChanceLoopStream(1.0, 1.0, true, 1u << 14);
}

TEST(ArmLink, HooksDrawFromForksOfThePlanSeed)
{
    FaultPlan plan;
    plan.byteCorruptionRate = 5e-3;
    plan.updateCorruptionRate = 1e-3;
    plan.seed = 77;
    auto updating = std::make_shared<bool>(false);
    transport::LinkPair link(115200.0);
    armLink(link, plan, updating);

    // armLink forks phone-to-hub corruption, phone-to-hub drops, then
    // hub-to-phone corruption from Rng(plan.seed).
    std::mt19937_64 root(plan.seed);
    std::mt19937_64 phone_to_hub(root());
    root();
    std::mt19937_64 hub_to_phone(root());

    double now = 0.0;
    for (int send = 0; send < 400; ++send) {
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(1 + (send * 37) % 1500));
        for (std::size_t i = 0; i < bytes.size(); ++i)
            bytes[i] = static_cast<std::uint8_t>(send + i);
        *updating = send % 4 == 0;
        const double p = plan.byteCorruptionRate +
                         (*updating ? plan.updateCorruptionRate : 0.0);
        for (auto [line, oracle] :
             {std::pair{&link.phoneToHub(), &phone_to_hub},
              std::pair{&link.hubToPhone(), &hub_to_phone}}) {
            line->send(bytes, now);
            std::vector<std::uint8_t> expected = bytes;
            chanceLoopCorrupt(*oracle, p, expected);
            const auto received = line->receive(line->busyUntil());
            ASSERT_EQ(std::vector<std::uint8_t>(received.begin(),
                                                received.end()),
                      expected)
                << "send " << send;
        }
        now = std::max(link.phoneToHub().busyUntil(),
                       link.hubToPhone().busyUntil());
    }
    EXPECT_GT(link.phoneToHub().corruptedBytes(), 0u);
    EXPECT_GT(link.hubToPhone().corruptedBytes(), 0u);
}

} // namespace
} // namespace sidewinder::sim
