/**
 * @file
 * Ablation for threshold self-tuning (Section 7 of the paper): a
 * steps-style wake-up condition deployed with a too-permissive
 * threshold faces a persistent distractor. With application feedback
 * the tuner converges until the distractor no longer wakes the
 * device, while real events keep triggering; the harness reports
 * wake-ups and the implied phone power before and after convergence.
 */

#include <cstdio>

#include "hub/autotune.h"
#include "hub/engine.h"
#include "il/lower.h"
#include "il/parser.h"
#include "support/rng.h"

using namespace sidewinder;

namespace {

/** Feed one synthetic hour: distractor bumps plus rare real events. */
struct Workload
{
    /** Signal amplitude of spurious activity (not events). */
    double distractorLevel = 12.0;
    /** Signal amplitude of true events. */
    double eventLevel = 25.0;
    /** Distractors per simulated minute. */
    int distractorsPerMinute = 6;
    /** True events per simulated minute. */
    int eventsPerMinute = 1;
};

struct Outcome
{
    int distractorWakes = 0;
    int eventWakes = 0;
    int missedEvents = 0;
};

Outcome
runMinute(hub::Engine &engine, hub::ThresholdAutoTuner *tuner,
          const Workload &workload, Rng &rng)
{
    Outcome outcome;
    auto pulse = [&](double level) {
        bool woke = false;
        for (int i = 0; i < 10; ++i) {
            engine.pushSamples({level + rng.gaussian(0.0, 0.3)}, 0.0);
            woke |= !engine.drainWakeEvents().empty();
        }
        for (int i = 0; i < 40; ++i) {
            engine.pushSamples({rng.gaussian(0.0, 0.3)}, 0.0);
            engine.drainWakeEvents();
        }
        return woke;
    };

    for (int d = 0; d < workload.distractorsPerMinute; ++d) {
        if (pulse(workload.distractorLevel)) {
            ++outcome.distractorWakes;
            if (tuner != nullptr)
                tuner->reportFalsePositive();
        }
    }
    for (int e = 0; e < workload.eventsPerMinute; ++e) {
        if (pulse(workload.eventLevel)) {
            ++outcome.eventWakes;
            if (tuner != nullptr)
                tuner->reportTruePositive();
        } else {
            ++outcome.missedEvents;
        }
    }
    return outcome;
}

} // namespace

int
main()
{
    const char *program_text =
        "ACC_X -> minThreshold(id=1, params={8});\n1 -> OUT;\n";
    const Workload workload;

    std::printf("Threshold self-tuning ablation (Section 7)\n");
    std::printf("condition: minThreshold(8); distractors at %.0f, "
                "events at %.0f\n\n",
                workload.distractorLevel, workload.eventLevel);
    std::printf("%-8s %14s %14s %10s %8s\n", "minute",
                "FP wakes (off)", "FP wakes (on)", "missed(on)",
                "scale");

    hub::Engine static_engine({{"ACC_X", 50.0}});
    static_engine.addCondition(
        1, il::lower(il::parse(program_text), static_engine.channels(),
                     static_engine.lowerOptions()));

    hub::Engine tuned_engine({{"ACC_X", 50.0}});
    hub::AutoTuneConfig config;
    config.falsePositiveStreak = 3;
    hub::ThresholdAutoTuner tuner(tuned_engine, 1,
                                  il::parse(program_text), config);

    Rng rng(42);
    Rng rng2(42);
    int total_fp_off = 0;
    int total_fp_on = 0;
    int total_missed_on = 0;
    for (int minute = 1; minute <= 12; ++minute) {
        const auto off =
            runMinute(static_engine, nullptr, workload, rng);
        const auto on = runMinute(tuned_engine, &tuner, workload, rng2);
        total_fp_off += off.distractorWakes;
        total_fp_on += on.distractorWakes;
        total_missed_on += on.missedEvents;
        std::printf("%-8d %14d %14d %10d %8.2f\n", minute,
                    off.distractorWakes, on.distractorWakes,
                    on.missedEvents, tuner.currentScale());
    }

    // Each avoided false wake saves one wake-sleep transition pair
    // plus the awake dwell: (384 + 341 + 323) mJ at 1 s each.
    const double mj_per_wake = 384.0 + 341.0 + 323.0;
    std::printf("\ntotals: %d false wakes without tuning, %d with "
                "(%d events missed); %.1f J saved per simulated "
                "12 minutes\n",
                total_fp_off, total_fp_on, total_missed_on,
                (total_fp_off - total_fp_on) * mj_per_wake / 1000.0);
    std::printf("final strictness scale: %.2f after %zu retunes\n",
                tuner.currentScale(), tuner.retuneCount());
    return 0;
}
