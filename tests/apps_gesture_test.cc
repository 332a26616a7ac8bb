/**
 * @file
 * Tests for the gesture extension: generator support, full recall of
 * classifier and wake condition, rejection of non-gesture motion,
 * and the Section 5.4 timeliness contrast against Batching.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "metrics/events.h"
#include "sim/simulator.h"
#include "trace/human_gen.h"

namespace sidewinder::apps {
namespace {

trace::Trace
gestureTrace(std::uint64_t seed = 42,
             trace::HumanScenario scenario = trace::HumanScenario::Office)
{
    trace::HumanTraceConfig config;
    config.scenario = scenario;
    config.durationSeconds = 400.0;
    config.gestureFraction = 0.03;
    config.seed = seed;
    config.name = "gesture-trace";
    return generateHumanTrace(config);
}

std::vector<double>
hubTriggers(const Application &app, const trace::Trace &trace)
{
    hub::Engine engine(app.channels());
    engine.addCondition(
        1, test::planFor(engine, app.wakeCondition().compile()));
    std::vector<double> triggers;
    for (std::size_t i = 0; i < trace.sampleCount(); ++i) {
        engine.pushSamples({trace.channels[0][i], trace.channels[1][i],
                            trace.channels[2][i]},
                           trace.timeOf(i));
        for (const auto &event : engine.drainWakeEvents())
            triggers.push_back(event.timestamp);
    }
    return triggers;
}

TEST(GestureGen, TracesContainGestures)
{
    const auto trace = gestureTrace();
    const auto gestures =
        trace.eventsOfType(trace::event_type::gesture);
    EXPECT_GE(gestures.size(), 3u);
    for (const auto &g : gestures)
        EXPECT_NEAR(g.duration(), 1.2, 0.2);
}

TEST(GestureGen, DisabledByDefault)
{
    trace::HumanTraceConfig config;
    config.durationSeconds = 200.0;
    config.seed = 1;
    const auto trace = generateHumanTrace(config);
    EXPECT_TRUE(
        trace.eventsOfType(trace::event_type::gesture).empty());
}

TEST(GestureApp, ClassifierFullRecallHighPrecision)
{
    const auto app = makeGestureApp();
    const auto trace = gestureTrace();
    const auto truth = trace.eventsOfType(app->eventType());
    ASSERT_FALSE(truth.empty());

    const auto detections =
        app->classify(trace, 0, trace.sampleCount());
    const auto result = metrics::matchEventsCoalesced(
        truth, detections, app->matchTolerance());
    EXPECT_DOUBLE_EQ(result.recall(), 1.0);
    EXPECT_GE(result.precision(), 0.9);
}

TEST(GestureApp, WakeConditionCoversEveryGesture)
{
    const auto app = makeGestureApp();
    const auto trace = gestureTrace(7);
    const auto truth = trace.eventsOfType(app->eventType());
    ASSERT_FALSE(truth.empty());
    const auto wake = metrics::matchEventsCoalesced(
        truth, hubTriggers(*app, trace), 0.5);
    EXPECT_DOUBLE_EQ(wake.recall(), 1.0);
}

TEST(GestureApp, StepsDoNotCrossTrigger)
{
    // A gesture-free walking-heavy trace must produce no gesture
    // detections (the 8 Hz burst criterion rejects gait bumps).
    const auto app = makeGestureApp();
    trace::HumanTraceConfig config;
    config.scenario = trace::HumanScenario::Retail;
    config.durationSeconds = 300.0;
    config.gestureFraction = 0.0;
    config.seed = 3;
    const auto trace = generateHumanTrace(config);
    EXPECT_TRUE(app->classify(trace, 0, trace.sampleCount()).empty());
}

TEST(GestureApp, GesturesDoNotBreakStepCounting)
{
    const auto steps = makeStepsApp();
    const auto trace = gestureTrace(11);
    const auto truth = trace.eventsOfType(steps->eventType());
    const auto detections =
        steps->classify(trace, 0, trace.sampleCount());
    const auto result = metrics::matchEvents(truth, detections,
                                             steps->matchTolerance());
    EXPECT_DOUBLE_EQ(result.recall(), 1.0);
}

TEST(GestureApp, SidewinderBeatsBatchingOnLatency)
{
    // Section 5.4: gestures need detection within a couple of
    // seconds; Batching at 10 s cannot provide that.
    const auto app = makeGestureApp();
    const auto trace = gestureTrace(13);
    ASSERT_FALSE(trace.eventsOfType(app->eventType()).empty());

    sim::SimConfig config;
    config.strategy = sim::Strategy::Sidewinder;
    const auto sw = sim::simulate(trace, *app, config);
    config.strategy = sim::Strategy::Batching;
    config.sleepIntervalSeconds = 10.0;
    const auto ba = sim::simulate(trace, *app, config);

    EXPECT_DOUBLE_EQ(sw.recall, 1.0);
    EXPECT_DOUBLE_EQ(ba.recall, 1.0);
    EXPECT_LE(sw.meanDetectionLatencySeconds, 2.0);
    EXPECT_GT(ba.meanDetectionLatencySeconds, 2.0);
}

} // namespace
} // namespace sidewinder::apps
