/**
 * @file
 * Robustness sweep: how the accelerometer wake-up conditions' recall
 * degrades as sensor noise grows beyond the level the conditions were
 * calibrated for. The paper calibrates against one prototype's
 * sensors (Section 5); this harness quantifies the margin that
 * calibration has — the generality/accuracy trade of Section 3.8 made
 * concrete.
 *
 * The app x sigma grid (noisy-trace synthesis plus a full hub replay
 * per cell) runs on the shared thread pool; the noise injection is
 * seed-driven, so the recall table is identical to the serial run.
 */

#include <cstdio>
#include <vector>

#include "apps/apps.h"
#include "bench_common.h"
#include "hub/engine.h"
#include "il/lower.h"
#include "metrics/events.h"
#include "sim/replay.h"
#include "support/thread_pool.h"
#include "trace/augment.h"
#include "trace/robot_gen.h"

using namespace sidewinder;

namespace {

double
wakeRecall(const apps::Application &app, const trace::Trace &trace,
           double pad)
{
    hub::Engine engine(app.channels());
    engine.addCondition(1, il::lower(app.wakeCondition().compile(),
                                     engine.channels(),
                                     engine.lowerOptions()));
    std::vector<double> triggers;
    sim::detail::replayTrace(engine, trace,
                             [&](const hub::WakeEvent &event) {
                                 triggers.push_back(event.timestamp);
                             });
    return metrics::matchEventsCoalesced(
               trace.eventsOfType(app.eventType()), triggers, pad)
        .recall();
}

} // namespace

int
main()
{
    const double seconds = bench::scaledSeconds(600.0);
    std::printf("Noise robustness: wake-condition recall vs added "
                "sensor noise (%.0f s busy run, %zu threads)%s\n",
                seconds, support::ThreadPool::shared().threadCount(),
                bench::fastMode() ? " [SW_FAST]" : "");

    trace::RobotRunConfig config;
    config.idleFraction = 0.1; // busy: plenty of events
    config.durationSeconds = seconds;
    config.seed = 20160402;
    const auto base = generateRobotRun(config);

    const double sigmas[] = {0.0, 0.1, 0.2, 0.4, 0.8, 1.6};
    const double pads[] = {0.4, 1.0, 0.5};

    const auto apps = apps::accelerometerApps();

    // One cell per (app, sigma): each worker synthesizes its own
    // noisy trace (seeded, deterministic) and replays the condition.
    const std::size_t cols = std::size(sigmas);
    const auto recalls = support::ThreadPool::shared().parallelMap(
        apps.size() * cols, [&](std::size_t cell) {
            const std::size_t a = cell / cols;
            const double sigma = sigmas[cell % cols];
            const auto noisy =
                trace::addGaussianNoise(base, sigma, 99);
            return wakeRecall(*apps[a], noisy, pads[a]);
        });

    bench::rule();
    std::printf("%-13s", "noise sigma");
    for (double s : sigmas)
        std::printf(" %7.1f", s);
    std::printf("\n");
    bench::rule();

    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::printf("%-13s", apps[a]->name().c_str());
        for (std::size_t s = 0; s < cols; ++s)
            std::printf(" %6.0f%%", 100.0 * recalls[a * cols + s]);
        std::printf("\n");
    }
    bench::rule();
    std::printf("(the conditions are calibrated for the prototype's "
                "~0.08 m/s^2 sensor noise; fixed acceptance bands "
                "erode once smoothed noise peaks reach the band "
                "edges)\n");
    return 0;
}
