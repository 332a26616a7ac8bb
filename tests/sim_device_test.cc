/**
 * @file
 * Tests for the multi-hub device simulation: one phone, an
 * accelerometer hub and an audio hub (Section 2.1.1's heterogeneous
 * sizing options), all applications at full recall, and sane power
 * composition.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/algorithm.h"
#include "core/pipeline.h"
#include "core/sensors.h"
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

/** An accelerometer app whose condition holds a window of
 *  @p samples: about 4 bytes of hub RAM per sample. */
class WindowApp : public apps::Application
{
  public:
    explicit WindowApp(int samples) : samples(samples) {}

    std::string name() const override { return "window"; }
    std::string eventType() const override { return "step"; }
    std::vector<il::ChannelInfo>
    channels() const override
    {
        return {{core::channel::accelerometerX, 50.0}};
    }
    core::ProcessingPipeline
    wakeCondition() const override
    {
        core::ProcessingBranch branch(core::channel::accelerometerX);
        branch.add(core::Window(samples));
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
    int samples;
};

TEST(Device, DomainNoMcuFitsThrowsCapabilityError)
{
    // Each condition fits the LM4F120's 32 KB alone (20120 and 20124
    // bytes); one hub holding both does not, and the placer names the
    // budget that binds.
    const auto accel = accelTrace(60.0);
    std::vector<std::unique_ptr<apps::Application>> one;
    one.push_back(std::make_unique<WindowApp>(5000));
    EXPECT_EQ(simulateDevice({DeviceDomain{&accel, &one}})
                  .domains.front()
                  .mcuName,
              "LM4F120");

    std::vector<std::unique_ptr<apps::Application>> two;
    two.push_back(std::make_unique<WindowApp>(5000));
    two.push_back(std::make_unique<WindowApp>(5001));
    try {
        simulateDevice({DeviceDomain{&accel, &two}});
        FAIL() << "a 40 KB domain fits no MCU";
    } catch (const CapabilityError &error) {
        EXPECT_STREQ(error.what(),
                     "no hub executor can home the conditions "
                     "(MSP430 [mcu] unfit; ram 40244 > 16384 B, "
                     "LM4F120 [mcu] unfit; ram 40244 > 32768 B)");
    }
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
