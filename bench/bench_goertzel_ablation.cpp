/**
 * @file
 * Algorithm-set ablation for the Section 3.8 trade-off: "there is
 * also a trade-off between algorithm complexity and power savings.
 * More complex algorithms can reduce energy consumption by preventing
 * unnecessary wake-ups due to increased accuracy. On the other hand,
 * more complex algorithms have higher computational demands, which
 * require a larger and hungrier peripheral processor."
 *
 * Two siren wake-up conditions over the same traces:
 *  - the paper's FFT pipeline: precise (dominant frequency + pitch
 *    ratio + in-band checks) but needs the 49.4 mW LM4F120;
 *  - a Goertzel-probe pipeline: two cheap single-bin probes inside
 *    the siren band, coarse (wakes on every probe crossing and on
 *    pitched distractors near the probes) but fits the 3.6 mW MSP430.
 */

#include <cstdio>
#include <vector>

#include "apps/apps.h"
#include "bench_common.h"
#include "core/algorithm.h"
#include "core/pipeline.h"
#include "core/sensors.h"
#include "hub/engine.h"
#include "hub/placer.h"
#include "il/lower.h"
#include "metrics/events.h"
#include "sim/power_model.h"
#include "sim/replay.h"
#include "sim/timeline.h"
#include "support/thread_pool.h"
#include "trace/audio_gen.h"

using namespace sidewinder;

namespace {

/** The cheap alternative: Goertzel probes at 1100 and 1500 Hz. */
core::ProcessingPipeline
goertzelSirenCondition()
{
    using namespace core;
    ProcessingPipeline pipeline;
    for (double probe_hz : {1100.0, 1500.0}) {
        ProcessingBranch branch(channel::audio);
        branch.add(Window(64))
            .add(GoertzelRelative(probe_hz))
            .add(MinThreshold(0.35));
        pipeline.add(std::move(branch));
    }
    pipeline.add(Or());
    pipeline.add(Consecutive(3));
    return pipeline;
}

struct Outcome
{
    std::string mcu;
    double hubMw = 0.0;
    double powerMw = 0.0;
    double recall = 0.0;
    std::size_t triggers = 0;
};

/** Per-trace replay numbers, combined in trace order afterwards. */
struct TraceOutcome
{
    double recall = 0.0;
    double powerMw = 0.0;
    std::size_t triggers = 0;
};

Outcome
evaluate(const std::vector<trace::Trace> &traces,
         const il::Program &program, const apps::Application &app)
{
    Outcome outcome;
    const auto channels = app.channels();
    const il::ExecutionPlan plan = il::lower(program, channels);
    const hub::PlacementDecision home =
        hub::homeConditions({&plan, 1}, plan.cost(), hub::mcuExecutors());
    outcome.mcu = home.executorName;
    outcome.hubMw = home.marginalPowerMw;

    // Each trace replay owns its engine; fan them across the pool and
    // reduce in trace order so the averages match the serial loop.
    const auto per_trace =
        support::ThreadPool::shared().parallelMap(
            traces.size(), [&](std::size_t ti) {
                const auto &t = traces[ti];
                hub::Engine engine(channels);
                engine.addCondition(1, plan);
                std::vector<double> triggers;
                sim::detail::replayTrace(
                    engine, t, [&](const hub::WakeEvent &event) {
                        triggers.push_back(event.timestamp);
                    });

                TraceOutcome out;
                out.triggers = triggers.size();
                out.recall =
                    metrics::matchEventsCoalesced(
                        t.eventsOfType(app.eventType()), triggers,
                        1.5)
                        .recall();

                sim::DeviceTimeline timeline(t.durationSeconds());
                for (double trig : triggers)
                    timeline.addAwakeInterval(trig + 1.0,
                                              trig + 2.0);
                out.powerMw = timeline
                                  .summarize(sim::nexus4WithHub(
                                      outcome.hubMw))
                                  .averagePowerMw;
                return out;
            });

    double recall_sum = 0.0;
    double power_sum = 0.0;
    for (const auto &per : per_trace) {
        outcome.triggers += per.triggers;
        recall_sum += per.recall;
        power_sum += per.powerMw;
    }
    outcome.recall = recall_sum / static_cast<double>(traces.size());
    outcome.powerMw = power_sum / static_cast<double>(traces.size());
    return outcome;
}

} // namespace

int
main()
{
    const double seconds = bench::audioSeconds();
    std::printf("Goertzel-vs-FFT siren condition (Section 3.8 "
                "complexity trade), 3 traces of %.0f s%s\n",
                seconds, bench::fastMode() ? " [SW_FAST]" : "");

    const auto traces = trace::generateAudioCorpus(seconds, 20160402);
    const auto app = apps::makeSirenApp();

    const auto fft = evaluate(
        traces, app->wakeCondition().compile(), *app);
    const auto cheap = evaluate(
        traces, goertzelSirenCondition().compile(), *app);

    bench::rule();
    std::printf("%-22s %10s %8s %10s %8s %9s\n", "condition", "hub",
                "hub mW", "power mW", "recall", "triggers");
    bench::rule();
    std::printf("%-22s %10s %8.1f %10.1f %7.0f%% %9zu\n",
                "FFT pipeline (paper)", fft.mcu.c_str(), fft.hubMw,
                fft.powerMw, 100.0 * fft.recall, fft.triggers);
    std::printf("%-22s %10s %8.1f %10.1f %7.0f%% %9zu\n",
                "Goertzel probes", cheap.mcu.c_str(), cheap.hubMw,
                cheap.powerMw, 100.0 * cheap.recall, cheap.triggers);
    bench::rule();
    std::printf("(the precise condition buys fewer wake-ups at the "
                "cost of a hungrier hub; the coarse one inverts the "
                "trade — which side wins depends on how loud the "
                "environment is)\n");
    return 0;
}
