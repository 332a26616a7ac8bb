/**
 * @file
 * Regenerates **Figure 7** of the paper: power relative to Oracle for
 * the step detector on traces from three human subjects (commute /
 * retail / office), with Duty Cycling and Batching shown at a 10 s
 * sleep interval.
 *
 * Expected shape (paper): all approaches except Duty Cycling keep
 * 100% recall (DC ~82%); Sidewinder achieves at least 91% of the
 * available power savings on every trace; the generic Predefined
 * Activity condition performs poorly because subjects perform many
 * motions that are not steps (vehicle vibration, object handling,
 * fidgeting) yet wake the device.
 *
 * The subject x strategy grid runs on the shared thread pool via
 * sim::runSweep with deterministic, serial-identical results; the PA
 * cells are the threshold calibration's own runs at its chosen
 * threshold.
 */

#include <cstdio>
#include <vector>

#include "apps/apps.h"
#include "bench_common.h"
#include "metrics/events.h"
#include "sim/calibrate.h"
#include "sim/sweep.h"
#include "support/thread_pool.h"
#include "trace/human_gen.h"

using namespace sidewinder;

namespace {

sim::SimConfig
cellConfig(sim::Strategy strategy, double sleep = 10.0)
{
    sim::SimConfig config;
    config.strategy = strategy;
    config.sleepIntervalSeconds = sleep;
    return config;
}

} // namespace

int
main()
{
    const double seconds = bench::humanSeconds();
    std::printf("Figure 7: power relative to Oracle, human traces "
                "(3 subjects, %.0f s each, %zu threads)%s\n",
                seconds, support::ThreadPool::shared().threadCount(),
                bench::fastMode() ? " [SW_FAST]" : "");

    const auto corpus = trace::generateHumanCorpus(seconds, 20160402);
    const auto app = apps::makeStepsApp();

    // The calibration's runs at the chosen threshold are the PA cells.
    const auto calibration = sim::calibratePredefinedThreshold(
        corpus, *app, {0.3, 0.5, 0.8, 1.2, 2.0});

    // Five strategy cells per subject, consumed in cell order below.
    std::vector<sim::SweepCell> cells;
    for (const auto &t : corpus) {
        cells.push_back(
            {&t, app.get(), cellConfig(sim::Strategy::Oracle)});
        cells.push_back(
            {&t, app.get(), cellConfig(sim::Strategy::AlwaysAwake)});
        cells.push_back(
            {&t, app.get(),
             cellConfig(sim::Strategy::DutyCycling, 10.0)});
        cells.push_back(
            {&t, app.get(),
             cellConfig(sim::Strategy::Batching, 10.0)});
        cells.push_back(
            {&t, app.get(), cellConfig(sim::Strategy::Sidewinder)});
    }
    const auto results = sim::runSweep(cells);

    bench::rule();
    std::printf("%-22s %7s %7s %7s %7s %7s %10s %9s\n", "subject",
                "AA", "DC-10", "Ba-10", "PA", "Sw", "Oracle mW",
                "Sw save");
    bench::rule();

    double min_share = 1.0;
    double dc_recall_sum = 0.0;
    std::size_t cell = 0;
    for (std::size_t s = 0; s < corpus.size(); ++s) {
        const auto &t = corpus[s];
        const double oracle = results[cell++].averagePowerMw;
        const double aa = results[cell++].averagePowerMw;
        const auto &dc = results[cell++];
        const double ba = results[cell++].averagePowerMw;
        const double pa = calibration.results[s].averagePowerMw;
        const double sw = results[cell++].averagePowerMw;

        const double share =
            metrics::savingsFraction(aa, sw, oracle);
        min_share = std::min(min_share, share);
        dc_recall_sum += dc.recall;

        std::printf("%-22s %7.2f %7.2f %7.2f %7.2f %7.2f %10.1f "
                    "%8.1f%%\n",
                    t.name.c_str(), aa / oracle,
                    dc.averagePowerMw / oracle, ba / oracle,
                    pa / oracle, sw / oracle, oracle, 100.0 * share);
    }
    bench::rule();
    std::printf("Sidewinder minimum share of available savings: "
                "%.1f%%   (paper: >= 91%%)\n",
                100.0 * min_share);
    std::printf("Duty Cycling mean recall: %.0f%%   (paper: 82%%; all "
                "other approaches 100%%)\n",
                100.0 * dc_recall_sum /
                    static_cast<double>(corpus.size()));
    return 0;
}
