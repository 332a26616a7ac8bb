/**
 * @file
 * Tests for concurrent multi-application simulation (Section 7):
 * every app keeps full recall on the shared hub, the combined power
 * is below the sum of solo deployments, and node sharing reduces the
 * hub's footprint without changing detections.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/algorithm.h"
#include "core/sensors.h"
#include "sim/concurrent.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"

namespace sidewinder::sim {
namespace {

trace::Trace
robotTrace(std::uint64_t seed = 42)
{
    trace::RobotRunConfig config;
    config.idleFraction = 0.5;
    config.durationSeconds = 180.0;
    config.seed = seed;
    return trace::generateRobotRun(config);
}

TEST(Concurrent, RejectsEmptyAppList)
{
    std::vector<std::unique_ptr<apps::Application>> none;
    EXPECT_THROW(simulateConcurrent(robotTrace(), none), ConfigError);
}

TEST(Concurrent, RejectsMixedChannelSets)
{
    std::vector<std::unique_ptr<apps::Application>> mixed;
    mixed.push_back(apps::makeStepsApp());
    mixed.push_back(apps::makeSirenApp());
    // The trace does not matter; channel validation comes first.
    EXPECT_THROW(simulateConcurrent(robotTrace(), mixed), ConfigError);
}

/** Thresholds ACC_X alone, sampled at a rate the test chooses. */
class AccelXApp : public apps::Application
{
  public:
    explicit AccelXApp(double rate_hz) : rateHz(rate_hz) {}

    std::string name() const override { return "accel-x"; }
    std::string eventType() const override { return "step"; }
    std::vector<il::ChannelInfo>
    channels() const override
    {
        return {{core::channel::accelerometerX, rateHz}};
    }
    core::ProcessingPipeline
    wakeCondition() const override
    {
        core::ProcessingBranch branch(core::channel::accelerometerX);
        branch.add(core::Window(50));
        branch.add(core::Rms());
        core::ProcessingPipeline pipeline;
        pipeline.add(std::move(branch));
        pipeline.add(core::MinThreshold(1.0));
        return pipeline;
    }
    std::vector<double>
    classify(const trace::Trace &, std::size_t, std::size_t) const override
    {
        return {};
    }

  private:
    double rateHz;
};

TEST(Concurrent, RejectsOneChannelAtTwoRates)
{
    // Same channel names, different rates: one hub cannot sample
    // ACC_X at 50 Hz and at 100 Hz.
    std::vector<std::unique_ptr<apps::Application>> apps;
    apps.push_back(std::make_unique<AccelXApp>(50.0));
    apps.push_back(std::make_unique<AccelXApp>(100.0));
    EXPECT_THROW(simulateConcurrent(robotTrace(), apps), ConfigError);
}

TEST(Concurrent, AllAccelAppsKeepFullRecall)
{
    const auto trace = robotTrace();
    const auto result =
        simulateConcurrent(trace, apps::accelerometerApps());

    ASSERT_EQ(result.apps.size(), 3u);
    for (const auto &app : result.apps) {
        EXPECT_DOUBLE_EQ(app.recall, 1.0) << app.appName;
        EXPECT_GE(app.precision, 0.9) << app.appName;
    }
    EXPECT_EQ(result.mcuName, "MSP430");
}

TEST(Concurrent, CombinedPowerBelowSumOfSoloDeployments)
{
    // Three separate phones each running one app would each pay for
    // their own wake-ups; one phone running all three pays once for
    // overlapping awake windows, plus a single hub.
    const auto trace = robotTrace();
    const auto combined =
        simulateConcurrent(trace, apps::accelerometerApps());

    double solo_sum = 0.0;
    SimConfig config;
    config.strategy = Strategy::Sidewinder;
    for (const auto &app : apps::accelerometerApps())
        solo_sum += simulate(trace, *app, config).averagePowerMw;

    EXPECT_LT(combined.averagePowerMw, solo_sum);
    // And it cannot be cheaper than the most demanding single app.
    double solo_max = 0.0;
    for (const auto &app : apps::accelerometerApps())
        solo_max = std::max(
            solo_max, simulate(trace, *app, config).averagePowerMw);
    EXPECT_GE(combined.averagePowerMw, solo_max - 1.0);
}

TEST(Concurrent, SharingShrinksTheHubNotTheDetections)
{
    const auto trace = robotTrace(7);

    SimConfig shared_config;
    shared_config.shareHubNodes = true;
    const auto shared = simulateConcurrent(
        trace, apps::accelerometerApps(), shared_config);

    SimConfig unshared_config;
    unshared_config.shareHubNodes = false;
    const auto unshared = simulateConcurrent(
        trace, apps::accelerometerApps(), unshared_config);

    EXPECT_LE(shared.hubNodeCount, unshared.hubNodeCount);
    EXPECT_LE(shared.hubCyclesPerSecond,
              unshared.hubCyclesPerSecond);

    ASSERT_EQ(shared.apps.size(), unshared.apps.size());
    for (std::size_t i = 0; i < shared.apps.size(); ++i) {
        EXPECT_EQ(shared.apps[i].hubTriggerCount,
                  unshared.apps[i].hubTriggerCount)
            << shared.apps[i].appName;
        EXPECT_DOUBLE_EQ(shared.apps[i].recall,
                         unshared.apps[i].recall);
    }
    EXPECT_DOUBLE_EQ(shared.averagePowerMw, unshared.averagePowerMw);
}

TEST(Concurrent, AudioAppsShareTheLm4f120)
{
    trace::AudioTraceConfig config;
    config.durationSeconds = 150.0;
    config.seed = 5;
    const auto trace = trace::generateAudioTrace(config);

    const auto result =
        simulateConcurrent(trace, apps::audioApps());
    // The siren condition forces the big MCU for the whole hub.
    EXPECT_EQ(result.mcuName, "LM4F120");
    for (const auto &app : result.apps)
        EXPECT_DOUBLE_EQ(app.recall, 1.0) << app.appName;
}

} // namespace
} // namespace sidewinder::sim
