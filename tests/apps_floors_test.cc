/**
 * @file
 * Tests for the barometer floor-change extension: generator physics,
 * full recall of classifier and wake condition, rejection of weather
 * drift and door blips, and end-to-end simulation.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "hub/mcu.h"
#include "il/lower.h"
#include "metrics/events.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "trace/baro_gen.h"

namespace sidewinder::apps {
namespace {

trace::Trace
baroTrace(std::uint64_t seed = 42, double ride_fraction = 0.05)
{
    trace::BaroTraceConfig config;
    config.durationSeconds = 1200.0;
    config.rideFraction = ride_fraction;
    config.seed = seed;
    config.name = "baro-test";
    return trace::generateBaroTrace(config);
}

std::vector<double>
hubTriggers(const Application &app, const trace::Trace &trace)
{
    hub::Engine engine(app.channels());
    engine.addCondition(
        1, test::planFor(engine, app.wakeCondition().compile()));
    std::vector<double> triggers;
    for (std::size_t i = 0; i < trace.sampleCount(); ++i) {
        engine.pushSamples({trace.channels[0][i]}, trace.timeOf(i));
        for (const auto &event : engine.drainWakeEvents())
            triggers.push_back(event.timestamp);
    }
    return triggers;
}

TEST(BaroGen, ProducesRidesWithSaneMagnitudes)
{
    const auto trace = baroTrace();
    const auto rides =
        trace.eventsOfType(trace::event_type::floorChange);
    ASSERT_GE(rides.size(), 3u);

    // Pressure during a ride moves by at least ~0.3 hPa.
    const auto &p = trace.channels[0];
    for (const auto &ride : rides) {
        const auto a = static_cast<std::size_t>(ride.startTime *
                                                trace.sampleRateHz);
        const auto b = std::min(
            static_cast<std::size_t>(ride.endTime *
                                     trace.sampleRateHz),
            p.size() - 1);
        EXPECT_GE(std::abs(p[b] - p[a]), 0.3);
    }
}

TEST(BaroGen, RejectsBadConfig)
{
    trace::BaroTraceConfig config;
    config.rideFraction = 0.9;
    EXPECT_THROW(trace::generateBaroTrace(config), ConfigError);
    config = {};
    config.durationSeconds = -1.0;
    EXPECT_THROW(trace::generateBaroTrace(config), ConfigError);
}

TEST(FloorsApp, ClassifierFullRecallHighPrecision)
{
    const auto app = makeFloorsApp();
    const auto trace = baroTrace();
    const auto truth = trace.eventsOfType(app->eventType());
    ASSERT_FALSE(truth.empty());

    const auto detections =
        app->classify(trace, 0, trace.sampleCount());
    const auto result = metrics::matchEventsCoalesced(
        truth, detections, app->matchTolerance());
    EXPECT_DOUBLE_EQ(result.recall(), 1.0);
    EXPECT_GE(result.precision(), 0.9);
}

TEST(FloorsApp, WakeConditionCoversEveryRide)
{
    const auto app = makeFloorsApp();
    const auto trace = baroTrace(7);
    const auto truth = trace.eventsOfType(app->eventType());
    ASSERT_FALSE(truth.empty());
    const auto wake = metrics::matchEventsCoalesced(
        truth, hubTriggers(*app, trace), 4.0);
    EXPECT_DOUBLE_EQ(wake.recall(), 1.0);
}

TEST(FloorsApp, QuietDayNeverWakes)
{
    // No rides, only drift and blips: the classifier must stay
    // silent (the conservative wake condition may blip rarely).
    const auto app = makeFloorsApp();
    const auto trace = baroTrace(3, 0.0);
    EXPECT_TRUE(
        trace.eventsOfType(app->eventType()).empty());
    EXPECT_TRUE(app->classify(trace, 0, trace.sampleCount()).empty());
}

TEST(FloorsApp, FitsTheMsp430)
{
    const auto app = makeFloorsApp();
    EXPECT_EQ(hub::selectMcuForPlan(il::lower(app->wakeCondition().compile(),
                                              app->channels()))
                  .name,
              "MSP430");
}

TEST(FloorsApp, SidewinderNearOracleEndToEnd)
{
    const auto app = makeFloorsApp();
    const auto trace = baroTrace(11);

    // Dwell and lookback come from the application's own
    // recommendations (slow barometer events need both deeper than
    // the defaults).
    sim::SimConfig config;
    config.strategy = sim::Strategy::Sidewinder;
    const auto sw = sim::simulate(trace, *app, config);
    config.strategy = sim::Strategy::Oracle;
    const auto oracle = sim::simulate(trace, *app, config);

    EXPECT_DOUBLE_EQ(sw.recall, 1.0);
    EXPECT_GE(metrics::savingsFraction(323.0, sw.averagePowerMw,
                                       oracle.averagePowerMw),
              0.85);
}

} // namespace
} // namespace sidewinder::apps
