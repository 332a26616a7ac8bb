/**
 * @file
 * Parameterized recall sweeps: the calibrated-for-100%-recall
 * requirement of Section 5 must hold across environments, activity
 * levels, and random seeds, not just on one lucky trace. Each
 * parameter combination generates a fresh trace and checks every
 * ground-truth event is covered by both the main-CPU classifier and
 * the Sidewinder wake-up condition.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "metrics/events.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"

namespace sidewinder::apps {
namespace {

/** Hub trigger timestamps for @p app over @p trace. */
std::vector<double>
hubTriggers(const Application &app, const trace::Trace &trace)
{
    hub::Engine engine(app.channels());
    engine.addCondition(
        1, test::planFor(engine, app.wakeCondition().compile()));

    std::vector<std::size_t> mapping;
    for (const auto &ch : app.channels())
        mapping.push_back(trace.channelIndex(ch.name));

    std::vector<double> triggers;
    std::vector<double> values(mapping.size());
    for (std::size_t i = 0; i < trace.sampleCount(); ++i) {
        for (std::size_t c = 0; c < mapping.size(); ++c)
            values[c] = trace.channels[mapping[c]][i];
        engine.pushSamples(values, trace.timeOf(i));
        for (const auto &event : engine.drainWakeEvents())
            triggers.push_back(event.timestamp);
    }
    return triggers;
}

void
expectFullCoverage(const Application &app, const trace::Trace &trace,
                   double wake_pad)
{
    const auto truth = trace.eventsOfType(app.eventType());

    const auto detections =
        app.classify(trace, 0, trace.sampleCount());
    const auto classifier =
        app.coalesceDetections()
            ? metrics::matchEventsCoalesced(truth, detections,
                                            app.matchTolerance())
            : metrics::matchEvents(truth, detections,
                                   app.matchTolerance());
    EXPECT_DOUBLE_EQ(classifier.recall(), 1.0)
        << app.name() << " classifier on " << trace.name;

    const auto wake = metrics::matchEventsCoalesced(
        truth, hubTriggers(app, trace), wake_pad);
    EXPECT_DOUBLE_EQ(wake.recall(), 1.0)
        << app.name() << " wake condition on " << trace.name;
}

// --- Accelerometer sweep: activity group x seed ---------------------

// gtest prints a parameter without a PrintTo as its raw bytes, and the
// printout is part of the registered test name. A 64-bit group leaves
// the struct without padding, so no uninitialised bytes reach the name
// and it is the same in every build.
struct AccelCase
{
    std::int64_t group;
    std::uint64_t seed;
};

class AccelSweep : public ::testing::TestWithParam<AccelCase>
{
  protected:
    trace::Trace
    makeTrace() const
    {
        trace::RobotRunConfig config;
        config.idleFraction = trace::robotGroupIdleFraction(
            static_cast<int>(GetParam().group));
        config.durationSeconds = 150.0;
        config.seed = GetParam().seed;
        config.name = "sweep-g" + std::to_string(GetParam().group) +
                      "-s" + std::to_string(GetParam().seed);
        return generateRobotRun(config);
    }
};

TEST_P(AccelSweep, StepsFullRecall)
{
    expectFullCoverage(*makeStepsApp(), makeTrace(), 0.4);
}

TEST_P(AccelSweep, TransitionsFullRecall)
{
    expectFullCoverage(*makeTransitionsApp(), makeTrace(), 1.0);
}

TEST_P(AccelSweep, HeadbuttsFullRecall)
{
    expectFullCoverage(*makeHeadbuttsApp(), makeTrace(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    GroupsAndSeeds, AccelSweep,
    ::testing::Values(AccelCase{1, 101}, AccelCase{1, 202},
                      AccelCase{2, 101}, AccelCase{2, 202},
                      AccelCase{3, 101}, AccelCase{3, 202},
                      AccelCase{3, 303}),
    [](const ::testing::TestParamInfo<AccelCase> &info) {
        std::string name = "g";
        name += std::to_string(info.param.group);
        name += "s";
        name += std::to_string(info.param.seed);
        return name;
    });

// --- Audio sweep: environment x seed --------------------------------

struct AudioCase
{
    trace::AudioEnvironment environment;
    std::uint32_t unused = 0; // fills the padding; see AccelCase
    std::uint64_t seed;
};

class AudioSweep : public ::testing::TestWithParam<AudioCase>
{
  protected:
    trace::Trace
    makeTrace() const
    {
        trace::AudioTraceConfig config;
        config.environment = GetParam().environment;
        config.durationSeconds = 200.0;
        config.seed = GetParam().seed;
        config.phraseProbability = 0.6;
        config.name = "sweep-" +
                      trace::audioEnvironmentName(
                          GetParam().environment) +
                      "-s" + std::to_string(GetParam().seed);
        return trace::generateAudioTrace(config);
    }
};

TEST_P(AudioSweep, SirenFullRecall)
{
    expectFullCoverage(*makeSirenApp(), makeTrace(), 1.0);
}

TEST_P(AudioSweep, MusicFullRecall)
{
    expectFullCoverage(*makeMusicJournalApp(), makeTrace(), 2.0);
}

TEST_P(AudioSweep, PhraseClassifierFullRecall)
{
    // Wake coverage for phrase is against *speech* events (the
    // condition is a speech detector); tested separately below.
    const auto app = makePhraseApp();
    const auto trace = makeTrace();
    const auto truth = trace.eventsOfType(app->eventType());
    const auto detections =
        app->classify(trace, 0, trace.sampleCount());
    const auto result = metrics::matchEventsCoalesced(
        truth, detections, app->matchTolerance());
    EXPECT_DOUBLE_EQ(result.recall(), 1.0) << trace.name;
}

TEST_P(AudioSweep, SpeechWakeCoversAllSpeech)
{
    const auto app = makePhraseApp();
    const auto trace = makeTrace();
    const auto speech = trace.eventsOfType(trace::event_type::speech);
    const auto wake = metrics::matchEventsCoalesced(
        speech, hubTriggers(*app, trace), 1.5);
    EXPECT_DOUBLE_EQ(wake.recall(), 1.0) << trace.name;
}

INSTANTIATE_TEST_SUITE_P(
    EnvironmentsAndSeeds, AudioSweep,
    ::testing::Values(
        AudioCase{.environment = trace::AudioEnvironment::Office,
                  .seed = 11},
        AudioCase{.environment = trace::AudioEnvironment::Office,
                  .seed = 22},
        AudioCase{.environment = trace::AudioEnvironment::CoffeeShop,
                  .seed = 11},
        AudioCase{.environment = trace::AudioEnvironment::CoffeeShop,
                  .seed = 22},
        AudioCase{.environment = trace::AudioEnvironment::Outdoors,
                  .seed = 11},
        AudioCase{.environment = trace::AudioEnvironment::Outdoors,
                  .seed = 22}),
    [](const ::testing::TestParamInfo<AudioCase> &info) {
        return trace::audioEnvironmentName(info.param.environment) +
               "s" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace sidewinder::apps
