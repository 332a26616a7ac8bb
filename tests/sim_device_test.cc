/**
 * @file
 * Tests for the multi-hub device simulation: one phone, an
 * accelerometer hub and an audio hub (Section 2.1.1's heterogeneous
 * sizing options), all applications at full recall, and sane power
 * composition.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "sim/concurrent.h"
#include "support/error.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"

namespace sidewinder::sim {
namespace {

trace::Trace
accelTrace(double seconds)
{
    trace::RobotRunConfig config;
    config.idleFraction = 0.5;
    config.durationSeconds = seconds;
    config.seed = 42;
    return trace::generateRobotRun(config);
}

trace::Trace
audioTrace(double seconds)
{
    trace::AudioTraceConfig config;
    config.durationSeconds = seconds;
    config.seed = 42;
    return trace::generateAudioTrace(config);
}

TEST(Device, RejectsBadInput)
{
    EXPECT_THROW(simulateDevice({}), ConfigError);

    const auto accel = accelTrace(60.0);
    std::vector<std::unique_ptr<apps::Application>> none;
    DeviceDomain empty{&accel, &none};
    EXPECT_THROW(simulateDevice({empty}), ConfigError);

    // Mismatched durations.
    const auto audio = audioTrace(200.0);
    const auto accel_apps = apps::accelerometerApps();
    const auto audio_apps = apps::audioApps();
    DeviceDomain a{&accel, &accel_apps};
    DeviceDomain b{&audio, &audio_apps};
    EXPECT_THROW(simulateDevice({a, b}), ConfigError);

    // One hub samples one channel set: a domain mixing accelerometer
    // and audio apps is refused before anything is lowered.
    std::vector<std::unique_ptr<apps::Application>> mixed;
    mixed.push_back(apps::makeStepsApp());
    mixed.push_back(apps::makeSirenApp());
    EXPECT_THROW(simulateDevice({DeviceDomain{&accel, &mixed}}),
                 ConfigError);
}

TEST(Device, TwoHubsAllAppsFullRecall)
{
    const double seconds = 200.0;
    const auto accel = accelTrace(seconds);
    const auto audio = audioTrace(seconds);
    const auto accel_apps = apps::accelerometerApps();
    const auto audio_apps = apps::audioApps();

    const auto result = simulateDevice(
        {DeviceDomain{&accel, &accel_apps},
         DeviceDomain{&audio, &audio_apps}});

    ASSERT_EQ(result.domains.size(), 2u);
    // The accelerometer hub stays on the MSP430; the audio domain
    // needs the LM4F120 (siren FFTs).
    EXPECT_EQ(result.domains[0].mcuName, "MSP430");
    EXPECT_EQ(result.domains[1].mcuName, "LM4F120");
    EXPECT_NEAR(result.totalHubMw, 3.6 + 49.4, 1e-9);

    for (const auto &domain : result.domains)
        for (const auto &app : domain.apps)
            EXPECT_DOUBLE_EQ(app.recall, 1.0) << app.appName;

    // Both hubs always on, phone mostly asleep: the total sits well
    // below Always Awake yet above the hub floor.
    EXPECT_GT(result.averagePowerMw, result.totalHubMw + 9.7);
    EXPECT_LT(result.averagePowerMw, 323.0);
}

TEST(Device, SingleDomainMatchesConcurrentPower)
{
    const auto accel = accelTrace(150.0);
    const auto accel_apps = apps::accelerometerApps();

    const auto device =
        simulateDevice({DeviceDomain{&accel, &accel_apps}});
    const auto concurrent =
        simulateConcurrent(accel, apps::accelerometerApps());

    EXPECT_NEAR(device.averagePowerMw, concurrent.averagePowerMw,
                1e-9);
}

} // namespace
} // namespace sidewinder::sim
