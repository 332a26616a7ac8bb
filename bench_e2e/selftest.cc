/**
 * @file
 * Self-tests of the end-to-end benchmark, on short traces:
 *
 *  - decomposition fidelity: the traced rebuild equals simulate() for
 *    every shipped app x rebuildable strategy, and K=64 block replay
 *    raises the same wakes as the K=1 push loop;
 *  - dsp.fft_transforms is 0 on `robot` and above 0 on `audio`;
 *  - failure accounting: a perturbed pinned value fails exactly one
 *    cell, and the traced run of every workload reproduces the
 *    untraced one.
 *
 * Run with `python3 bench_e2e/run.py --selftest`; exits non-zero on
 * any failure.
 */

#include <cstdio>
#include <string>

#include "apps/apps.h"
#include "rebuild.h"
#include "sim/simulator.h"
#include "trace/audio_gen.h"
#include "trace/robot_gen.h"
#include "workloads.h"

namespace sw = sidewinder;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

e2e::Scale
shortScale()
{
    e2e::Scale scale;
    scale.audioSeconds = 60.0;
    scale.robotSeconds = 120.0;
    scale.fleetDevices = 256;
    return scale;
}

e2e::RunConfig
shortRun(const std::string &workload, bool trace)
{
    e2e::RunConfig config;
    config.workload = workload;
    config.seconds = 0.0;
    config.trace = trace;
    config.scale = shortScale();
    return config;
}

void
decompositionFidelity()
{
    const e2e::Scale scale = shortScale();
    const auto audio =
        sw::trace::generateAudioCorpus(scale.audioSeconds, e2e::defaultSeed)
            .front();
    const auto robot =
        sw::trace::generateRobotCorpus(scale.robotSeconds, e2e::defaultSeed)
            .back();

    struct Variant
    {
        const char *name;
        sw::sim::SimConfig config;
    };
    std::vector<Variant> variants(5);
    variants[0] = {"PA", {}};
    variants[0].config.strategy = sw::sim::Strategy::PredefinedActivity;
    variants[1] = {"PA@0.12", variants[0].config};
    variants[1].config.predefinedThreshold = 0.12;
    variants[2] = {"Sw", {}};
    variants[2].config.strategy = sw::sim::Strategy::Sidewinder;
    variants[3] = {"Sw-heterogeneous", variants[2].config};
    variants[3].config.hubBackend = sw::sim::HubBackend::Heterogeneous;
    variants[4] = {"Sw-unshared", variants[2].config};
    variants[4].config.shareHubNodes = false;

    for (const auto &app : sw::apps::allApps()) {
        const bool is_audio = app->channels().front().name == "AUDIO";
        const auto &trace = is_audio ? audio : robot;
        for (const auto &variant : variants) {
            const std::string what = app->name() + " " + variant.name;
            const auto expected =
                sw::sim::simulate(trace, *app, variant.config);
            const auto rebuilt =
                e2e::rebuildCell(trace, *app, variant.config, nullptr);
            check(e2e::sameResult(rebuilt.result, expected),
                  what + ": rebuild equals simulate()");
            check(e2e::sameWakes(rebuilt.wakes,
                                 e2e::replayBlocks(trace, rebuilt, 64,
                                                   nullptr)),
                  what + ": K=64 wakes equal K=1 (" +
                      std::to_string(rebuilt.wakes.size()) + " wakes)");
        }
    }
}

void
fftCounts()
{
    const auto robot = e2e::runWorkload(shortRun("robot", true));
    check(robot.metric("dsp.fft_transforms") == 0.0,
          "robot performs no FFT");
    const auto audio = e2e::runWorkload(shortRun("audio", true));
    check(audio.metric("dsp.fft_transforms") > 0.0, "audio performs FFTs");
    check(robot.correct && audio.correct && robot.failed == 0 &&
              audio.failed == 0,
          "traced robot and audio runs reproduce the untraced outputs");
}

void
failureAccounting()
{
    e2e::RunConfig config = shortRun("robot", false);
    const auto clean = e2e::runWorkload(config);
    config.expected.insert(clean.pinned.begin(), clean.pinned.end());
    const auto pinned = e2e::runWorkload(config);
    check(pinned.correct && pinned.failed == 0,
          "robot matches its own pinned outputs");

    auto &value = config.expected.begin()->second;
    value[0] = value[0] == '9' ? '8' : '9';
    const auto perturbed = e2e::runWorkload(config);
    check(!perturbed.correct && perturbed.failed == 1 &&
              perturbed.attempted == pinned.attempted,
          "one perturbed pinned value fails exactly one cell");

    for (const char *workload : {"fleet", "faults"}) {
        const auto traced = e2e::runWorkload(shortRun(workload, true));
        check(traced.correct && traced.failed == 0,
              std::string(workload) +
                  ": traced run reproduces the untraced outputs");
    }
}

} // namespace

int
main()
{
    decompositionFidelity();
    fftCounts();
    failureAccounting();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
