/**
 * @file
 * Tests for trace augmentation (noise) and the robustness of the
 * wake-up conditions under noise and a sensor gain error.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "metrics/events.h"
#include "support/error.h"
#include "trace/augment.h"
#include "trace/robot_gen.h"

namespace sidewinder::trace {
namespace {

Trace
smallRobotTrace()
{
    RobotRunConfig config;
    config.idleFraction = 0.5;
    config.durationSeconds = 120.0;
    config.seed = 42;
    return generateRobotRun(config);
}

TEST(Augment, NoisePreservesShapeAndEvents)
{
    const Trace base = smallRobotTrace();
    const Trace noisy = addGaussianNoise(base, 0.2, 9);
    EXPECT_EQ(noisy.sampleCount(), base.sampleCount());
    EXPECT_EQ(noisy.events.size(), base.events.size());
    EXPECT_NE(noisy.channels[0][100], base.channels[0][100]);
    EXPECT_THROW(addGaussianNoise(base, -1.0, 9), ConfigError);
}

TEST(Augment, ZeroNoiseIsIdentity)
{
    const Trace base = smallRobotTrace();
    const Trace same = addGaussianNoise(base, 0.0, 9);
    EXPECT_EQ(same.channels, base.channels);
}

/** Wake-condition recall survives moderate extra sensor noise. */
TEST(Robustness, StepsWakeSurvivesModerateNoise)
{
    const auto app = apps::makeStepsApp();
    const Trace noisy =
        addGaussianNoise(smallRobotTrace(), 0.15, 3);

    hub::Engine engine(app->channels());
    engine.addCondition(
        1, test::planFor(engine, app->wakeCondition().compile()));
    std::vector<double> triggers;
    for (std::size_t i = 0; i < noisy.sampleCount(); ++i) {
        engine.pushSamples({noisy.channels[0][i], noisy.channels[1][i],
                            noisy.channels[2][i]},
                           noisy.timeOf(i));
        for (const auto &event : engine.drainWakeEvents())
            triggers.push_back(event.timestamp);
    }
    const auto result = metrics::matchEventsCoalesced(
        noisy.eventsOfType(event_type::step), triggers, 0.4);
    EXPECT_GE(result.recall(), 0.98);
}

/** Large gain error breaks the fixed acceptance band, as expected. */
TEST(Robustness, HeadbuttsWakeBreaksUnderLargeGainError)
{
    const auto app = apps::makeHeadbuttsApp();
    // A busy trace guarantees headbutts; 45% low gain moves the
    // -4.3..-6.2 dips mostly out of the detector's [-6.75, -3.75]
    // band.
    RobotRunConfig config;
    config.idleFraction = 0.1;
    config.durationSeconds = 180.0;
    config.seed = 42;
    Trace miscalibrated = generateRobotRun(config);
    for (auto &channel : miscalibrated.channels)
        for (auto &value : channel)
            value *= 0.55;

    hub::Engine engine(app->channels());
    engine.addCondition(
        1, test::planFor(engine, app->wakeCondition().compile()));
    std::vector<double> triggers;
    for (std::size_t i = 0; i < miscalibrated.sampleCount(); ++i) {
        engine.pushSamples({miscalibrated.channels[0][i],
                            miscalibrated.channels[1][i],
                            miscalibrated.channels[2][i]},
                           miscalibrated.timeOf(i));
        for (const auto &event : engine.drainWakeEvents())
            triggers.push_back(event.timestamp);
    }
    const auto truth =
        miscalibrated.eventsOfType(event_type::headbutt);
    if (truth.empty())
        GTEST_SKIP() << "no headbutts in this trace";
    const auto result =
        metrics::matchEventsCoalesced(truth, triggers, 0.5);
    EXPECT_LT(result.recall(), 1.0);
}

} // namespace
} // namespace sidewinder::trace
