/**
 * @file
 * Tests for the trace-driven simulator: power model (Table 1),
 * timeline accounting, and the qualitative orderings of Section 5.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "apps/apps.h"
#include "sim/calibrate.h"
#include "sim/power_model.h"
#include "sim/simulator.h"
#include "sim/timeline.h"
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

TEST(PowerModel, Table1Values)
{
    const PowerModel model = nexus4();
    EXPECT_DOUBLE_EQ(model.awakeMw, 323.0);
    EXPECT_DOUBLE_EQ(model.asleepMw, 9.7);
    EXPECT_DOUBLE_EQ(model.wakeTransitionMw, 384.0);
    EXPECT_DOUBLE_EQ(model.sleepTransitionMw, 341.0);
    EXPECT_DOUBLE_EQ(model.transitionSeconds, 1.0);
    EXPECT_DOUBLE_EQ(nexus4WithHub(3.6).hubMw, 3.6);
}

TEST(Timeline, AlwaysAsleepCostsSleepPower)
{
    DeviceTimeline timeline(100.0);
    const auto s = timeline.summarize(nexus4());
    EXPECT_DOUBLE_EQ(s.averagePowerMw, 9.7);
    EXPECT_EQ(s.wakeUps, 0u);
}

TEST(Timeline, AlwaysAwakeCostsAwakePower)
{
    DeviceTimeline timeline(100.0);
    timeline.addAwakeInterval(0.0, 100.0);
    const auto s = timeline.summarize(nexus4());
    EXPECT_DOUBLE_EQ(s.averagePowerMw, 323.0);
    EXPECT_DOUBLE_EQ(s.asleepSeconds, 0.0);
}

TEST(Timeline, SingleEpisodeChargesBothTransitions)
{
    DeviceTimeline timeline(100.0);
    timeline.addAwakeInterval(50.0, 60.0);
    const auto s = timeline.summarize(nexus4());
    EXPECT_DOUBLE_EQ(s.awakeSeconds, 10.0);
    EXPECT_DOUBLE_EQ(s.wakeTransitionSeconds, 1.0);
    EXPECT_DOUBLE_EQ(s.sleepTransitionSeconds, 1.0);
    EXPECT_DOUBLE_EQ(s.asleepSeconds, 88.0);
    const double expected =
        (10.0 * 323.0 + 384.0 + 341.0 + 88.0 * 9.7) / 100.0;
    EXPECT_NEAR(s.averagePowerMw, expected, 1e-9);
}

TEST(Timeline, CloseIntervalsMerge)
{
    DeviceTimeline timeline(100.0);
    timeline.addAwakeInterval(10.0, 11.0);
    timeline.addAwakeInterval(11.5, 12.5); // gap 0.5 < 2 transitions
    const auto s = timeline.summarize(nexus4());
    EXPECT_EQ(s.wakeUps, 1u);
    EXPECT_DOUBLE_EQ(s.awakeSeconds, 2.5);
}

TEST(Timeline, DistantIntervalsStaySeparate)
{
    DeviceTimeline timeline(100.0);
    timeline.addAwakeInterval(10.0, 11.0);
    timeline.addAwakeInterval(50.0, 51.0);
    const auto s = timeline.summarize(nexus4());
    EXPECT_EQ(s.wakeUps, 2u);
    EXPECT_DOUBLE_EQ(s.wakeTransitionSeconds, 2.0);
}

TEST(Timeline, HubPowerAppliesToWholeRun)
{
    DeviceTimeline timeline(100.0);
    const auto s = timeline.summarize(nexus4WithHub(3.6));
    EXPECT_NEAR(s.averagePowerMw, 9.7 + 3.6, 1e-9);
}

TEST(Timeline, ClampsOutOfRangeIntervals)
{
    DeviceTimeline timeline(10.0);
    timeline.addAwakeInterval(-5.0, 2.0);
    timeline.addAwakeInterval(9.0, 20.0);
    const auto s = timeline.summarize(nexus4());
    EXPECT_DOUBLE_EQ(s.awakeSeconds, 3.0);
    EXPECT_THROW(DeviceTimeline(0.0), ConfigError);
}


TEST(PowerModel, BatteryLifeProjection)
{
    // 7.98 Wh at 323 mW (always awake) is about a day; at 9.7 mW
    // (asleep) about a month.
    EXPECT_NEAR(batteryLifeHours(323.0), 24.7, 0.5);
    EXPECT_NEAR(batteryLifeHours(9.7), 822.0, 10.0);
    EXPECT_DOUBLE_EQ(batteryLifeHours(0.0), 0.0);
    // More power, less life (monotonicity).
    EXPECT_GT(batteryLifeHours(50.0), batteryLifeHours(100.0));
}

TEST(Simulator, StrategyNames)
{
    EXPECT_EQ(strategyName(Strategy::AlwaysAwake), "AA");
    EXPECT_EQ(strategyName(Strategy::DutyCycling, 10.0), "DC-10");
    EXPECT_EQ(strategyName(Strategy::Batching, 5.0), "Ba-5");
    EXPECT_EQ(strategyName(Strategy::Sidewinder), "Sw");
}

class SimOrdering : public ::testing::Test
{
  protected:
    static SimResult
    run(const trace::Trace &t, const apps::Application &app,
        Strategy strategy, double sleep = 10.0)
    {
        SimConfig config;
        config.strategy = strategy;
        config.sleepIntervalSeconds = sleep;
        return simulate(t, app, config);
    }
};

TEST_F(SimOrdering, AlwaysAwakeCosts323)
{
    const auto app = apps::makeHeadbuttsApp();
    const auto r = run(robotTrace(), *app, Strategy::AlwaysAwake);
    EXPECT_NEAR(r.averagePowerMw, 323.0, 1.0);
    EXPECT_DOUBLE_EQ(r.recall, 1.0);
}

TEST_F(SimOrdering, OracleIsCheapestAndPerfect)
{
    const auto app = apps::makeHeadbuttsApp();
    const auto trace = robotTrace();
    const auto oracle = run(trace, *app, Strategy::Oracle);
    EXPECT_DOUBLE_EQ(oracle.recall, 1.0);
    EXPECT_DOUBLE_EQ(oracle.precision, 1.0);

    for (Strategy s : {Strategy::AlwaysAwake, Strategy::DutyCycling,
                       Strategy::Batching, Strategy::PredefinedActivity,
                       Strategy::Sidewinder}) {
        EXPECT_GE(run(trace, *app, s).averagePowerMw,
                  oracle.averagePowerMw)
            << strategyName(s, 10.0);
    }
}

TEST_F(SimOrdering, SidewinderKeepsFullRecallForRareEvents)
{
    const auto app = apps::makeHeadbuttsApp();
    const auto r = run(robotTrace(), *app, Strategy::Sidewinder);
    EXPECT_DOUBLE_EQ(r.recall, 1.0);
    EXPECT_EQ(r.mcuName, "MSP430");
    EXPECT_LT(r.averagePowerMw, 100.0);
}

TEST_F(SimOrdering, SidewinderBeatsPredefinedForRareEvents)
{
    // Section 5.3: PA consumes several times more power than
    // Sidewinder for infrequent events (headbutts, transitions).
    const auto app = apps::makeHeadbuttsApp();
    const auto trace = robotTrace(0.5, 5);
    const auto pa = run(trace, *app, Strategy::PredefinedActivity);
    const auto sw = run(trace, *app, Strategy::Sidewinder);
    EXPECT_DOUBLE_EQ(pa.recall, 1.0);
    EXPECT_GT(pa.averagePowerMw, 1.5 * sw.averagePowerMw);
}

TEST_F(SimOrdering, ShortDutyCyclesCostMoreThanAlwaysAwake)
{
    // Section 5.4: a 2 s sleep interval consumed *more* than Always
    // Awake because of transition energy.
    const auto app = apps::makeStepsApp();
    const auto trace = robotTrace(0.9, 23);
    const auto dc2 = run(trace, *app, Strategy::DutyCycling, 2.0);
    EXPECT_GT(dc2.averagePowerMw, 300.0);
}

TEST_F(SimOrdering, DutyCyclingRecallDropsWithInterval)
{
    // Use a busy trace (10% idle) so there are many headbutts to
    // miss, as in Figure 6 of the paper.
    const auto app = apps::makeHeadbuttsApp();
    const auto trace = robotTrace(0.1, 31);
    ASSERT_GE(trace.eventsOfType(app->eventType()).size(), 3u);
    const auto dc2 = run(trace, *app, Strategy::DutyCycling, 2.0);
    const auto dc30 = run(trace, *app, Strategy::DutyCycling, 30.0);
    EXPECT_LE(dc30.recall, dc2.recall);
    EXPECT_LT(dc30.recall, 1.0);
    EXPECT_LT(dc30.averagePowerMw, dc2.averagePowerMw);
}

TEST_F(SimOrdering, BatchingKeepsRecallButAddsLatency)
{
    const auto app = apps::makeHeadbuttsApp();
    const auto trace = robotTrace(0.1, 31);
    ASSERT_GE(trace.eventsOfType(app->eventType()).size(), 3u);
    const auto ba = run(trace, *app, Strategy::Batching, 10.0);
    EXPECT_DOUBLE_EQ(ba.recall, 1.0);
    EXPECT_GT(ba.meanDetectionLatencySeconds, 1.0);

    const auto sw = run(trace, *app, Strategy::Sidewinder);
    EXPECT_LT(sw.meanDetectionLatencySeconds,
              ba.meanDetectionLatencySeconds);
}

TEST_F(SimOrdering, SidewinderNearOracleForRareEvents)
{
    // Section 5.2: >= ~90% of available savings.
    const auto app = apps::makeHeadbuttsApp();
    const auto trace = robotTrace(0.9, 47);
    const auto aa = run(trace, *app, Strategy::AlwaysAwake);
    const auto oracle = run(trace, *app, Strategy::Oracle);
    const auto sw = run(trace, *app, Strategy::Sidewinder);
    const double fraction = metrics::savingsFraction(
        aa.averagePowerMw, sw.averagePowerMw, oracle.averagePowerMw);
    EXPECT_GE(fraction, 0.85);
}


TEST_F(SimOrdering, FpgaBackendCutsSidewinderHubPower)
{
    const auto app = apps::makeHeadbuttsApp();
    const auto trace = robotTrace();

    SimConfig mcu_config;
    mcu_config.strategy = Strategy::Sidewinder;
    const auto mcu = simulate(trace, *app, mcu_config);

    SimConfig fpga_config = mcu_config;
    fpga_config.hubBackend = HubBackend::Fpga;
    const auto fpga = simulate(trace, *app, fpga_config);

    EXPECT_EQ(fpga.mcuName, "iCE40-hub");
    EXPECT_DOUBLE_EQ(fpga.recall, mcu.recall);
    EXPECT_LT(fpga.hubMw, mcu.hubMw);
    EXPECT_LT(fpga.averagePowerMw, mcu.averagePowerMw);
}

TEST_F(SimOrdering, MissingChannelThrows)
{
    const auto app = apps::makeSirenApp(); // needs AUDIO
    EXPECT_THROW(run(robotTrace(), *app, Strategy::Sidewinder),
                 ConfigError);
}

TEST_F(SimOrdering, TraceAtAnotherRateThrows)
{
    // Steps reads the accelerometer at 50 Hz; its condition must not
    // replay over a 100 Hz run, whose waves come twice as fast.
    trace::RobotRunConfig config;
    config.sampleRateHz = 100.0;
    config.durationSeconds = 60.0;
    const auto app = apps::makeStepsApp();
    EXPECT_THROW(run(trace::generateRobotRun(config), *app,
                     Strategy::Sidewinder),
                 ConfigError);
}


TEST(Calibrate, ReportsWhenFullRecallUnattainable)
{
    // Candidates so insensitive that even the best misses events: the
    // sweep must say so and fall back to the most sensitive one.
    const auto app = apps::makeHeadbuttsApp();
    std::vector<trace::Trace> traces = {robotTrace(0.1, 61)};
    ASSERT_FALSE(traces[0].eventsOfType(app->eventType()).empty());
    const auto result =
        calibratePredefinedThreshold(traces, *app, {50.0, 80.0});
    EXPECT_FALSE(result.achievedFullRecall);
    EXPECT_DOUBLE_EQ(result.threshold, 50.0);
}

TEST(Calibrate, PicksHighestFullRecallThreshold)
{
    const auto app = apps::makeHeadbuttsApp();
    std::vector<trace::Trace> traces = {robotTrace(0.5, 61)};
    const auto result = calibratePredefinedThreshold(
        traces, *app, {0.2, 0.5, 1.0, 2.0, 5.0});
    EXPECT_TRUE(result.achievedFullRecall);
    EXPECT_GT(result.threshold, 0.0);
    EXPECT_GT(result.averagePowerMw, 0.0);

    EXPECT_THROW(calibratePredefinedThreshold({}, *app, {1.0}),
                 ConfigError);
    EXPECT_THROW(calibratePredefinedThreshold(traces, *app, {}),
                 ConfigError);
}

TEST(Calibrate, ReturnsThePredefinedRunsAtTheChosenThreshold)
{
    // Drivers reuse these runs as their PA cells, so each must equal
    // a fresh PA run at the chosen threshold, field for field, in both
    // the full-recall and the fallback outcome.
    const auto app = apps::makeHeadbuttsApp();
    const std::vector<trace::Trace> traces = {robotTrace(0.5, 61),
                                              robotTrace(0.1, 62)};
    const std::pair<std::vector<double>, bool> sweeps[] = {
        {{0.2, 0.5, 1.0, 2.0, 5.0}, true}, {{50.0, 80.0}, false}};
    for (const auto &[candidates, full_recall] : sweeps) {
        const auto result =
            calibratePredefinedThreshold(traces, *app, candidates);
        EXPECT_EQ(result.achievedFullRecall, full_recall);
        ASSERT_EQ(result.results.size(), traces.size());
        SimConfig config;
        config.strategy = Strategy::PredefinedActivity;
        config.predefinedThreshold = result.threshold;
        double power_sum = 0.0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const SimResult fresh = simulate(traces[i], *app, config);
            const SimResult &kept = result.results[i];
            EXPECT_EQ(kept.averagePowerMw, fresh.averagePowerMw);
            EXPECT_EQ(kept.recall, fresh.recall);
            EXPECT_EQ(kept.hubTriggerCount, fresh.hubTriggerCount);
            EXPECT_EQ(kept.detection.truePositives,
                      fresh.detection.truePositives);
            EXPECT_EQ(kept.detection.falsePositives,
                      fresh.detection.falsePositives);
            power_sum += kept.averagePowerMw;
        }
        EXPECT_EQ(result.averagePowerMw,
                  power_sum / static_cast<double>(traces.size()));
    }
}

} // namespace
} // namespace sidewinder::sim
