/**
 * @file
 * Ablation for the pipeline-merging extension (Section 7 of the
 * paper: "When receiving multiple wake-up conditions, the sensor
 * manager can attempt to improve performance by combining the
 * pipelines that use common algorithms").
 *
 * Installs growing sets of wake-up conditions on one hub engine with
 * node sharing on and off and reports algorithm-instance counts and
 * estimated sustained compute load — the quantity the MCU capability
 * model budgets against.
 */

#include <cstdio>
#include <vector>

#include "apps/apps.h"
#include "apps/predefined.h"
#include "core/sensors.h"
#include "hub/engine.h"
#include "il/ast.h"
#include "il/lower.h"

using namespace sidewinder;

namespace {

struct Workload
{
    const char *label;
    std::vector<il::Program> programs;
    std::vector<il::ChannelInfo> channels;
};

void
report(const Workload &workload)
{
    hub::Engine shared(workload.channels, true);
    hub::Engine unshared(workload.channels, false);
    int id = 1;
    for (const auto &program : workload.programs) {
        shared.addCondition(id, il::lower(program, shared.channels(),
                                          shared.lowerOptions()));
        unshared.addCondition(id, il::lower(program, unshared.channels(),
                                            unshared.lowerOptions()));
        ++id;
    }

    const double node_saving =
        1.0 - static_cast<double>(shared.nodeCount()) /
                  static_cast<double>(unshared.nodeCount());
    const double cycle_saving =
        1.0 - shared.estimatedCyclesPerSecond() /
                  unshared.estimatedCyclesPerSecond();

    std::printf("%-34s %7zu %9zu %7.0f%% %17.0f %7.0f%%\n",
                workload.label, shared.nodeCount(),
                unshared.nodeCount(), 100.0 * node_saving,
                shared.estimatedCyclesPerSecond(),
                100.0 * cycle_saving);
}

} // namespace

int
main()
{
    std::printf("Pipeline-merging ablation (Section 7 future work)\n");
    std::printf("%-34s %7s %9s %8s %17s %8s\n", "workload", "shared",
                "unshared", "nodes", "shared cycles/s", "cycles");

    const auto accel_channels = core::accelerometerChannels();
    const auto audio_channels = core::audioChannels();

    // All three accelerometer apps on one hub.
    {
        Workload w{"3 accel apps", {}, accel_channels};
        for (const auto &app : apps::accelerometerApps())
            w.programs.push_back(app->wakeCondition().compile());
        report(w);
    }

    // Accel apps plus the predefined-motion detector.
    {
        Workload w{"3 accel apps + significant motion", {},
                   accel_channels};
        for (const auto &app : apps::accelerometerApps())
            w.programs.push_back(app->wakeCondition().compile());
        w.programs.push_back(
            apps::significantMotionCondition().compile());
        report(w);
    }

    // The audio apps (music + phrase share their feature prefix;
    // the siren detector shares its window/FFT chain internally).
    {
        Workload w{"3 audio apps", {}, audio_channels};
        for (const auto &app : apps::audioApps())
            w.programs.push_back(app->wakeCondition().compile());
        report(w);
    }

    // Many instances of the same app with varied thresholds — the
    // best case for merging (only the admission stage differs).
    {
        Workload w{"8 step counters, varied bands", {},
                   accel_channels};
        for (int i = 0; i < 8; ++i) {
            core::ProcessingPipeline pipeline;
            core::ProcessingBranch branch(
                core::channel::accelerometerX);
            branch.add(core::MovingAverage(5));
            branch.add(core::LocalMaxima(2.5 + 0.1 * i, 4.5, 15));
            pipeline.add(std::move(branch));
            w.programs.push_back(pipeline.compile());
        }
        report(w);
    }
    return 0;
}
