/**
 * @file
 * Output goldens for the replay drivers: simulate() under Predefined
 * Activity and Sidewinder for all six shipped apps (Sidewinder also
 * on the FPGA and Heterogeneous hub backends),
 * simulateConcurrent() over the three audio apps, simulateDevice()
 * over both sensor domains, simulateSupervised() over the three
 * robot apps under a grid of fault plans, and the audio apps'
 * main-CPU detection times over the whole audio trace, pinned under
 * tests/data/replay/ (regenerate with SW_UPDATE_GOLDENS=1). Any change
 * to how the drivers feed the hub engine, or to how bytes cross the
 * simulated UART, must leave every line byte-identical. The traces
 * are short and seeded, and their sample counts are not multiples of
 * the 64-wave replay block, so the ragged final block runs too; the
 * block replay itself is checked against a per-sample replay on a
 * condition that wakes inside that final block.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "engine_plan.h"
#include "sim/concurrent.h"
#include "sim/faults.h"
#include "sim/replay.h"
#include "sim/simulator.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"

namespace sidewinder::sim {
namespace {

constexpr double kSeconds = 180.3;

trace::Trace
accelTrace()
{
    trace::RobotRunConfig config;
    config.idleFraction = 0.5;
    config.durationSeconds = kSeconds;
    config.seed = 7;
    return trace::generateRobotRun(config);
}

trace::Trace
audioTrace()
{
    // Event-dense, so three minutes of audio hold sirens, music and
    // phrases.
    trace::AudioTraceConfig config;
    config.durationSeconds = kSeconds;
    config.sirenFraction = 0.1;
    config.musicFraction = 0.1;
    config.speechFraction = 0.2;
    config.phraseProbability = 0.9;
    config.seed = 7;
    return trace::generateAudioTrace(config);
}

/** @p value with every bit shown (%.17g round-trips a double). */
std::string
exact(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
scored(std::size_t triggers, const metrics::MatchResult &detection,
       double recall)
{
    return " triggers=" + std::to_string(triggers) +
           " recall=" + exact(recall) +
           " tp=" + std::to_string(detection.truePositives) +
           " fp=" + std::to_string(detection.falsePositives) +
           " fn=" + std::to_string(detection.falseNegatives);
}

std::string
appLines(const std::vector<ConcurrentAppResult> &apps)
{
    std::string out;
    for (const auto &app : apps)
        out += "  " + app.appName +
               scored(app.hubTriggerCount, app.detection, app.recall) +
               "\n";
    return out;
}

/** Every FaultMetrics field, in declaration order. */
std::string
faultFields(const metrics::FaultMetrics &f)
{
    return " retransmits=" + std::to_string(f.retransmits) +
           " lost=" + std::to_string(f.framesLost) +
           " dropped=" + std::to_string(f.framesDropped) +
           " corrupted=" + std::to_string(f.bytesCorrupted) +
           " decoderDropped=" + std::to_string(f.decoderDroppedBytes) +
           " resets=" + std::to_string(f.hubResets) +
           " repushed=" + std::to_string(f.repushedConditions) +
           " coalesced=" + std::to_string(f.wakesCoalesced) +
           " down=" + exact(f.hubDownSeconds) +
           " fallbackAwake=" + exact(f.fallbackAwakeSeconds) +
           " fallbackMj=" + exact(f.fallbackEnergyMj) +
           " linkDown=" + std::to_string(f.linkDownDeclared) +
           " stale=" + std::to_string(f.staleEpochFrames) +
           " committed=" + std::to_string(f.updatesCommitted) +
           " rolledBack=" + std::to_string(f.updatesRolledBack) +
           " deltaBytes=" + std::to_string(f.reconfigDeltaBytes) +
           " fullBytes=" + std::to_string(f.reconfigFullBytes) +
           " blind=" + exact(f.blindWindowSeconds);
}

void
expectGolden(const std::string &name, const std::string &actual)
{
    const auto path = std::filesystem::path(SW_TEST_DATA_DIR) /
                      "replay" / (name + ".golden");
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

TEST(ReplayGoldens, TracesEndOnARaggedBlock)
{
    EXPECT_NE(accelTrace().sampleCount() % detail::replayBlockWaves, 0u);
    EXPECT_NE(audioTrace().sampleCount() % detail::replayBlockWaves, 0u);
}

TEST(ReplayGoldens, BlockReplayKeepsTheRaggedTailWakes)
{
    // A hair-trigger significant-motion condition wakes at every
    // window hop, so the final partial block carries wakes too; the
    // block replay must raise exactly the per-sample replay's stream.
    const auto trace = accelTrace();
    const auto channels = apps::makeStepsApp()->channels();
    const il::Program program =
        apps::significantMotionCondition(1e-9).compile();
    hub::Engine block(channels);
    hub::Engine ref(channels);
    block.addCondition(1, test::planFor(block, program));
    ref.addCondition(1, test::planFor(ref, program));

    std::vector<hub::WakeEvent> got;
    detail::replayTrace(block, trace, [&](const hub::WakeEvent &event) {
        got.push_back(event);
    });

    std::vector<hub::WakeEvent> want;
    const auto mapping = detail::channelMapping(trace, channels);
    std::vector<double> values(mapping.size());
    for (std::size_t i = 0; i < trace.sampleCount(); ++i) {
        for (std::size_t c = 0; c < mapping.size(); ++c)
            values[c] = trace.channels[mapping[c]][i];
        ref.pushSamples(values, trace.timeOf(i));
        for (const auto &event : ref.drainWakeEvents())
            want.push_back(event);
    }

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].conditionId, want[e].conditionId);
        EXPECT_EQ(got[e].timestamp, want[e].timestamp);
        EXPECT_EQ(got[e].value, want[e].value);
    }
    const std::size_t tail = trace.sampleCount() -
                             trace.sampleCount() % detail::replayBlockWaves;
    ASSERT_FALSE(want.empty());
    EXPECT_GE(want.back().timestamp, trace.timeOf(tail));
}

TEST(ReplayGoldens, SimulatePredefinedAndSidewinderOnAllApps)
{
    const auto accel = accelTrace();
    const auto audio = audioTrace();
    std::string actual;
    for (const auto &app : apps::allApps()) {
        const bool on_audio = app->channels().front().name == "AUDIO";
        const auto &trace = on_audio ? audio : accel;
        for (Strategy strategy :
             {Strategy::PredefinedActivity, Strategy::Sidewinder}) {
            SimConfig config;
            config.strategy = strategy;
            const SimResult r = simulate(trace, *app, config);
            actual += app->name() + " " + r.configName +
                      scored(r.hubTriggerCount, r.detection, r.recall) +
                      " power=" + exact(r.averagePowerMw) +
                      " latency=" + exact(r.meanDetectionLatencySeconds) +
                      "\n";
        }
    }
    expectGolden("simulate", actual);
}

TEST(ReplayGoldens, SidewinderOnFpgaAndHeterogeneousBackends)
{
    // The placement paths beyond the default MCU space: the fabric
    // alone, and the whole platform under the placer.
    const auto accel = accelTrace();
    const auto audio = audioTrace();
    const std::pair<const char *, HubBackend> backends[] = {
        {"fpga", HubBackend::Fpga},
        {"heterogeneous", HubBackend::Heterogeneous}};
    std::string actual;
    for (const auto &app : apps::allApps()) {
        const bool on_audio = app->channels().front().name == "AUDIO";
        const auto &trace = on_audio ? audio : accel;
        for (const auto &[name, backend] : backends) {
            SimConfig config;
            config.strategy = Strategy::Sidewinder;
            config.hubBackend = backend;
            const SimResult r = simulate(trace, *app, config);
            actual += app->name() + " " + name +
                      scored(r.hubTriggerCount, r.detection, r.recall) +
                      " power=" + exact(r.averagePowerMw) +
                      " latency=" + exact(r.meanDetectionLatencySeconds) +
                      " hubMw=" + exact(r.hubMw) + " mcu=" + r.mcuName +
                      " executor=" + r.placement.executorName +
                      " marginalMw=" + exact(r.placement.marginalPowerMw) +
                      "\n";
        }
    }
    expectGolden("backends", actual);
}

TEST(ReplayGoldens, AudioClassifierDetectionTimes)
{
    // The drivers classify only awake windows and the goldens above
    // pin recall, not times; this pins every detection time each
    // audio classifier reports over the whole trace.
    const auto audio = audioTrace();
    std::string actual;
    for (const auto &app : apps::audioApps()) {
        const auto times = app->classify(audio, 0, audio.sampleCount());
        actual += app->name() + " detections=" +
                  std::to_string(times.size()) + "\n";
        for (double t : times)
            actual += "  " + exact(t) + "\n";
    }
    expectGolden("classifiers", actual);
}

TEST(ReplayGoldens, ConcurrentAudioApps)
{
    const auto r = simulateConcurrent(audioTrace(), apps::audioApps());
    expectGolden("concurrent", "power=" + exact(r.averagePowerMw) +
                                   " hub=" + r.mcuName + "\n" +
                                   appLines(r.apps));
}

TEST(ReplayGoldens, DeviceWithBothDomains)
{
    const auto accel = accelTrace();
    const auto audio = audioTrace();
    const auto accel_apps = apps::accelerometerApps();
    const auto audio_apps = apps::audioApps();
    const auto r =
        simulateDevice({DeviceDomain{&accel, &accel_apps},
                        DeviceDomain{&audio, &audio_apps}});
    std::string actual = "power=" + exact(r.averagePowerMw) +
                         " hubs=" + exact(r.totalHubMw) + "\n";
    for (const auto &domain : r.domains)
        actual += domain.mcuName + "\n" + appLines(domain.apps);
    expectGolden("device", actual);
}

TEST(ReplayGoldens, SupervisedFaultPlansOnRobotApps)
{
    // Every fault axis the supervised stack models, each at the rates
    // the sweeps use: byte corruption up to the 1e-2 recall-cliff
    // column, frame drops, brownouts, a stuck sensor, a mix of all
    // three link faults, a live reconfiguration whose traffic meets
    // extra corruption, and every axis at once.
    std::vector<std::pair<std::string, FaultPlan>> plans;
    for (double rate : {1e-4, 1e-3, 5e-3, 1e-2}) {
        FaultPlan plan;
        plan.byteCorruptionRate = rate;
        plans.emplace_back("corrupt=" + exact(rate), plan);
    }
    for (double rate : {0.05, 0.2}) {
        FaultPlan plan;
        plan.frameDropRate = rate;
        plans.emplace_back("drop=" + exact(rate), plan);
    }
    FaultPlan resets;
    resets.hubResetTimes = {45.0, 120.0};
    resets.hubResetDowntimeSeconds = 8.0;
    plans.emplace_back("resets", resets);
    FaultPlan stuck;
    stuck.stuckSensors = {{0, 30.0, 90.0}};
    plans.emplace_back("stuck", stuck);
    FaultPlan mix;
    mix.byteCorruptionRate = 1e-3;
    mix.frameDropRate = 0.05;
    mix.hubResetTimes = {90.0};
    mix.hubResetDowntimeSeconds = 10.0;
    plans.emplace_back("mix", mix);
    FaultPlan reconfig;
    reconfig.reconfigUpdates = {{60.0, 0.8}};
    reconfig.updateCorruptionRate = 5e-3;
    plans.emplace_back("reconfig", reconfig);
    // Every axis at once. The first brownout lands two waves into the
    // first update's transaction, before the hub can answer its
    // commit, so that update rolls back and is retried. These rows
    // also pin a defect in simulateSupervised's update schedule:
    // after a commit it retires the next scheduled update without
    // attempting it, so the second update never ships (deltaBytes
    // is two deltas, both the first update's).
    FaultPlan mix_all;
    mix_all.byteCorruptionRate = 1e-3;
    mix_all.frameDropRate = 0.05;
    mix_all.stuckSensors = {{0, 30.0, 90.0}};
    mix_all.reconfigUpdates = {{60.0, 0.8}, {120.0, 1.1}};
    mix_all.updateCorruptionRate = 5e-3;
    mix_all.hubResetTimes = {60.04, 150.0};
    mix_all.hubResetDowntimeSeconds = 8.0;
    plans.emplace_back("mix-all", mix_all);

    std::vector<std::unique_ptr<apps::Application>> robot_apps;
    robot_apps.push_back(apps::makeStepsApp());
    robot_apps.push_back(apps::makeTransitionsApp());
    robot_apps.push_back(apps::makeHeadbuttsApp());

    const auto trace = accelTrace();
    std::string actual;
    for (const auto &app : robot_apps) {
        for (const auto &[name, plan] : plans) {
            SimConfig config;
            config.strategy = Strategy::Sidewinder;
            config.faults = plan;
            const SimResult r = simulateSupervised(trace, *app, config);
            actual += app->name() + " " + name +
                      scored(r.hubTriggerCount, r.detection, r.recall) +
                      " power=" + exact(r.averagePowerMw) +
                      " precision=" + exact(r.precision) +
                      " energy=" + exact(r.timeline.energyMj) +
                      " awake=" + exact(r.timeline.awakeSeconds) +
                      " latency=" + exact(r.meanDetectionLatencySeconds) +
                      faultFields(r.faults) + "\n";
        }
    }
    expectGolden("supervised", actual);
}

} // namespace
} // namespace sidewinder::sim
