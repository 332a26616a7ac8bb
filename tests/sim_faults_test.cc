/**
 * @file
 * Tests for the fault-injection harness: the no-fault plan keeps the
 * simulator bit-identical to the fault-free fast path, fault runs are
 * deterministic in the seed, and the acceptance scenario of
 * docs/fault-model.md — byte corruption plus a mid-run hub brownout —
 * recovers all pushed conditions with bounded recall loss and nonzero
 * fault metrics.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "trace/robot_gen.h"

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

} // namespace
} // namespace sidewinder::sim
