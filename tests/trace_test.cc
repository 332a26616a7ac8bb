/**
 * @file
 * Tests for trace types, CSV persistence, and the synthetic
 * generators (robot, human, audio, barometer). Every bit the
 * generators and addGaussianNoise produce at two seeds is pinned as
 * FNV-1a digests in tests/data/trace/corpora.golden (regenerate with
 * SW_UPDATE_GOLDENS=1), so a change to Rng's distributions or to a
 * generator that moves one sample or event fails here.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "trace/audio_gen.h"
#include "trace/augment.h"
#include "trace/baro_gen.h"
#include "trace/csv.h"
#include "trace/human_gen.h"
#include "trace/robot_gen.h"
#include "trace/types.h"
#include "support/error.h"

namespace sidewinder::trace {
namespace {

Trace
tinyTrace()
{
    Trace t;
    t.name = "tiny";
    t.sampleRateHz = 10.0;
    t.channelNames = {"A", "B"};
    t.channels = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    t.events = {{"ev", 0.05, 0.15}};
    return t;
}

TEST(TraceType, BasicAccessors)
{
    const Trace t = tinyTrace();
    EXPECT_EQ(t.sampleCount(), 3u);
    EXPECT_DOUBLE_EQ(t.durationSeconds(), 0.3);
    EXPECT_DOUBLE_EQ(t.timeOf(2), 0.2);
    EXPECT_EQ(t.channelIndex("B"), 1u);
    EXPECT_THROW(t.channelIndex("C"), ConfigError);
    EXPECT_EQ(t.eventsOfType("ev").size(), 1u);
    EXPECT_NEAR(t.eventSeconds("ev"), 0.1, 1e-12);
}

TEST(TraceType, InvariantChecks)
{
    Trace t = tinyTrace();
    t.channels[1].pop_back();
    EXPECT_THROW(t.checkInvariants(), InternalError);

    t = tinyTrace();
    t.events[0].endTime = 0.01; // end < start
    EXPECT_THROW(t.checkInvariants(), InternalError);
}

TEST(Csv, RoundTrips)
{
    const Trace original = tinyTrace();
    std::stringstream buffer;
    saveCsv(original, buffer);
    const Trace loaded = loadCsv(buffer);

    EXPECT_EQ(loaded.name, original.name);
    EXPECT_DOUBLE_EQ(loaded.sampleRateHz, original.sampleRateHz);
    EXPECT_EQ(loaded.channelNames, original.channelNames);
    ASSERT_EQ(loaded.sampleCount(), original.sampleCount());
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_DOUBLE_EQ(loaded.channels[c][i],
                             original.channels[c][i]);
    ASSERT_EQ(loaded.events.size(), 1u);
    EXPECT_EQ(loaded.events[0].type, "ev");
}

TEST(Csv, RejectsMalformedInput)
{
    std::stringstream no_data("name=x\nrate=10\nchannels=A\n");
    EXPECT_THROW(loadCsv(no_data), ParseError);

    std::stringstream bad_row(
        "name=x\nrate=10\nchannels=A,B\ndata\n1.0\n");
    EXPECT_THROW(loadCsv(bad_row), ParseError);

    std::stringstream bad_key("wat=x\ndata\n");
    EXPECT_THROW(loadCsv(bad_key), ParseError);
}

TEST(RobotGen, ProducesRequestedShape)
{
    RobotRunConfig config;
    config.idleFraction = 0.5;
    config.durationSeconds = 120.0;
    config.seed = 7;
    const Trace t = generateRobotRun(config);

    t.checkInvariants();
    EXPECT_EQ(t.channelNames,
              (std::vector<std::string>{"ACC_X", "ACC_Y", "ACC_Z"}));
    EXPECT_NEAR(t.durationSeconds(), 120.0, 0.5);
    EXPECT_FALSE(t.eventsOfType(event_type::step).empty());
    EXPECT_FALSE(t.eventsOfType(event_type::transition).empty());
}

TEST(RobotGen, IdleFractionRoughlyHonored)
{
    RobotRunConfig config;
    config.idleFraction = 0.9;
    config.durationSeconds = 400.0;
    config.seed = 3;
    const Trace t = generateRobotRun(config);

    double active = 0.0;
    for (const auto &ev : t.eventsOfType(event_type::activeSegment))
        active += ev.duration();
    EXPECT_LT(active / t.durationSeconds(), 0.2);
}

TEST(RobotGen, ActivityMixFollowsPaperShares)
{
    RobotRunConfig config;
    config.idleFraction = 0.1;
    config.durationSeconds = 600.0;
    config.seed = 11;
    const Trace t = generateRobotRun(config);

    const double walk = t.eventSeconds(event_type::walkSegment);
    const double trans = t.eventSeconds(event_type::transition);
    const double butts = t.eventSeconds(event_type::headbutt);
    const double active = walk + trans + butts;
    ASSERT_GT(active, 0.0);
    // Paper: 73% / 24% / 3% of active time.
    EXPECT_NEAR(walk / active, 0.73, 0.12);
    EXPECT_NEAR(trans / active, 0.24, 0.12);
    EXPECT_NEAR(butts / active, 0.03, 0.03);
}

TEST(RobotGen, DeterministicForSameSeed)
{
    RobotRunConfig config;
    config.durationSeconds = 60.0;
    config.seed = 5;
    const Trace a = generateRobotRun(config);
    const Trace b = generateRobotRun(config);
    ASSERT_EQ(a.sampleCount(), b.sampleCount());
    EXPECT_EQ(a.channels[0], b.channels[0]);
    EXPECT_EQ(a.events.size(), b.events.size());
}

TEST(RobotGen, CorpusHasPaperStructure)
{
    const auto corpus = generateRobotCorpus(30.0, 1);
    EXPECT_EQ(corpus.size(), 18u); // 9 + 6 + 3
    EXPECT_EQ(robotGroupRunCount(1), 9);
    EXPECT_EQ(robotGroupRunCount(2), 6);
    EXPECT_EQ(robotGroupRunCount(3), 3);
    EXPECT_DOUBLE_EQ(robotGroupIdleFraction(2), 0.5);
    EXPECT_THROW(robotGroupIdleFraction(4), ConfigError);
}

TEST(RobotGen, RejectsBadConfig)
{
    RobotRunConfig config;
    config.idleFraction = 1.5;
    EXPECT_THROW(generateRobotRun(config), ConfigError);
}

TEST(HumanGen, WalkFractionInPaperRange)
{
    for (auto scenario : {HumanScenario::Commute, HumanScenario::Retail,
                          HumanScenario::Office}) {
        HumanTraceConfig config;
        config.scenario = scenario;
        config.durationSeconds = 600.0;
        config.seed = 21;
        const Trace t = generateHumanTrace(config);
        t.checkInvariants();
        const double walk =
            t.eventSeconds(event_type::walkSegment) /
            t.durationSeconds();
        // Paper: between 20% and 37% walking.
        EXPECT_GE(walk, 0.10) << humanScenarioName(scenario);
        EXPECT_LE(walk, 0.45) << humanScenarioName(scenario);
    }
}

TEST(HumanGen, CorpusHasThreeSubjects)
{
    const auto corpus = generateHumanCorpus(30.0, 2);
    ASSERT_EQ(corpus.size(), 3u);
    EXPECT_NE(corpus[0].name, corpus[1].name);
}

TEST(AudioGen, EventBudgetsRoughlyHonored)
{
    AudioTraceConfig config;
    config.durationSeconds = 300.0;
    config.seed = 9;
    const Trace t = generateAudioTrace(config);
    t.checkInvariants();
    EXPECT_EQ(t.channelNames, (std::vector<std::string>{"AUDIO"}));

    const double total = t.durationSeconds();
    EXPECT_NEAR(t.eventSeconds(event_type::siren) / total, 0.02,
                0.02);
    EXPECT_NEAR(t.eventSeconds(event_type::music) / total, 0.05,
                0.05);
    EXPECT_NEAR(t.eventSeconds(event_type::speech) / total, 0.05,
                0.04);
}

TEST(AudioGen, PhrasesLiveInsideSpeech)
{
    AudioTraceConfig config;
    config.durationSeconds = 600.0;
    config.seed = 4;
    config.phraseProbability = 1.0; // every speech segment
    const Trace t = generateAudioTrace(config);

    const auto phrases = t.eventsOfType(event_type::phrase);
    const auto speech = t.eventsOfType(event_type::speech);
    ASSERT_FALSE(phrases.empty());
    EXPECT_EQ(phrases.size(), speech.size());
    for (const auto &p : phrases) {
        bool inside = false;
        for (const auto &s : speech)
            inside |= p.startTime >= s.startTime - 1e-6 &&
                      p.endTime <= s.endTime + 1e-6;
        EXPECT_TRUE(inside);
    }
}

TEST(AudioGen, RejectsBadConfig)
{
    AudioTraceConfig config;
    config.sampleRateHz = 1000.0; // sirens above Nyquist
    EXPECT_THROW(generateAudioTrace(config), ConfigError);

    config = {};
    config.sirenFraction = 0.5;
    config.musicFraction = 0.3;
    config.speechFraction = 0.3;
    EXPECT_THROW(generateAudioTrace(config), ConfigError);
}

TEST(AudioGen, CorpusCoversThreeEnvironments)
{
    const auto corpus = generateAudioCorpus(60.0, 3);
    ASSERT_EQ(corpus.size(), 3u);
    EXPECT_NE(corpus[0].name.find("office"), std::string::npos);
    EXPECT_NE(corpus[1].name.find("coffeeshop"), std::string::npos);
    EXPECT_NE(corpus[2].name.find("outdoors"), std::string::npos);
}

/** FNV-1a-64 over @p size bytes at @p data, continuing @p hash. */
std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t hash)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3u;
    }
    return hash;
}

/** Digest of every channel's sample bytes, then every event's type
    (with its terminating zero), start and end. */
std::uint64_t
traceDigest(const Trace &trace)
{
    std::uint64_t hash = 0xcbf29ce484222325u;
    for (const auto &channel : trace.channels)
        hash = fnv1a(channel.data(), channel.size() * sizeof(double), hash);
    for (const auto &event : trace.events) {
        hash = fnv1a(event.type.c_str(), event.type.size() + 1, hash);
        hash = fnv1a(&event.startTime, sizeof event.startTime, hash);
        hash = fnv1a(&event.endTime, sizeof event.endTime, hash);
    }
    return hash;
}

TEST(TraceGolden, CorporaBitsArePinned)
{
    std::string actual;
    auto record = [&actual](const char *generator, std::uint64_t seed,
                            const Trace &trace) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "%s seed=%" PRIu64 " trace=%s samples=%zu "
                      "events=%zu digest=%016" PRIx64 "\n",
                      generator, seed, trace.name.c_str(),
                      trace.sampleCount(), trace.events.size(),
                      traceDigest(trace));
        actual += line;
    };
    for (const std::uint64_t seed : {20160402u, 42u}) {
        for (const Trace &t : generateAudioCorpus(300.0, seed))
            record("audio", seed, t);
        const auto robots = generateRobotCorpus(120.0, seed);
        for (const Trace &t : robots)
            record("robot", seed, t);
        for (const Trace &t : generateHumanCorpus(120.0, seed))
            record("human", seed, t);
        BaroTraceConfig baro;
        baro.durationSeconds = 1200.0;
        baro.seed = seed;
        record("baro", seed, generateBaroTrace(baro));
        record("noise", seed, addGaussianNoise(robots.front(), 0.2, seed));
    }

    const auto path = std::filesystem::path(SW_TEST_DATA_DIR) / "trace" /
                      "corpora.golden";
    if (std::getenv("SW_UPDATE_GOLDENS") != nullptr) {
        std::filesystem::create_directories(path.parent_path());
        std::ofstream out(path);
        ASSERT_TRUE(out) << path;
        out << actual;
        return;
    }
    std::ifstream golden(path);
    ASSERT_TRUE(golden)
        << path << " missing — regenerate with SW_UPDATE_GOLDENS=1";
    std::ostringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(actual, expected.str());
}

} // namespace
} // namespace sidewinder::trace
