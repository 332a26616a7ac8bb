#include "sim/simulator.h"

#include <algorithm>

#include "apps/predefined.h"
#include "hub/mcu.h"
#include "il/lower.h"
#include "sim/replay.h"

namespace sidewinder::sim {

namespace {

using detail::classifyIntervals;
using detail::meanLatency;
using detail::sampleAt;

/** The Predefined Activity condition for this application's sensor. */
core::ProcessingPipeline
predefinedConditionFor(const apps::Application &app, double threshold)
{
    const auto channels = app.channels();
    const bool audio = channels.size() == 1 &&
                       channels.front().name == "AUDIO";
    if (audio)
        return apps::significantSoundCondition(
            threshold > 0.0 ? threshold
                            : apps::defaultSoundThreshold);
    return apps::significantMotionCondition(
        threshold > 0.0 ? threshold : apps::defaultMotionThreshold);
}

} // namespace

std::string
strategyName(Strategy strategy, double sleep_interval_seconds)
{
    switch (strategy) {
      case Strategy::AlwaysAwake:
        return "AA";
      case Strategy::DutyCycling:
        return "DC-" + std::to_string(static_cast<int>(
                           sleep_interval_seconds));
      case Strategy::Batching:
        return "Ba-" + std::to_string(static_cast<int>(
                           sleep_interval_seconds));
      case Strategy::PredefinedActivity:
        return "PA";
      case Strategy::Sidewinder:
        return "Sw";
      case Strategy::Oracle:
        return "Oracle";
    }
    return "?";
}

SimResult
simulate(const trace::Trace &trace, const apps::Application &app,
         const SimConfig &config)
{
    // Any injected fault routes through the full transport +
    // supervision stack; a no-fault plan must leave this fast path —
    // and therefore every output bit — untouched.
    if (config.faults.any())
        return simulateSupervised(trace, app, config);

    trace.checkInvariants();
    const double total = trace.durationSeconds();
    const auto truth = trace.eventsOfType(app.eventType());

    PowerModel model = nexus4();
    DeviceTimeline timeline(total);
    std::vector<double> detections;
    SimResult result;
    result.configName =
        strategyName(config.strategy, config.sleepIntervalSeconds);

    const double trans = model.transitionSeconds;
    const double dwell = kAwakeDwellSeconds;
    const double event_dwell =
        config.eventDwellSeconds > 0.0
            ? config.eventDwellSeconds
            : app.recommendedEventDwellSeconds();

    switch (config.strategy) {
      case Strategy::AlwaysAwake: {
        timeline.addAwakeInterval(0.0, total);
        detections =
            app.classify(trace, 0, trace.sampleCount());
        break;
      }

      case Strategy::Oracle: {
        // Hypothetical ideal: wakes exactly at each event of interest
        // and stays awake just long enough to process it, with
        // perfect detections. This is the floor every realizable
        // approach is compared against (Section 4.2).
        for (const auto &ev : truth) {
            timeline.addAwakeInterval(
                ev.startTime,
                ev.startTime + event_dwell);
            detections.push_back(ev.midTime());
        }
        break;
      }

      case Strategy::DutyCycling: {
        // The sleep interval covers the whole asleep phase including
        // both 1 s transitions, so intervals shorter than two
        // transition times buy no actual sleep — reproducing the
        // paper's finding that DC-2 costs more than Always Awake.
        const double gap =
            std::max(config.sleepIntervalSeconds, 2.0 * trans);
        double awake_start = trans;
        while (awake_start < total) {
            double awake_end =
                std::min(awake_start + dwell, total);
            // "If an action is detected, the phone is kept awake for
            // another 4 seconds" (Section 4.2).
            while (awake_end < total) {
                const auto begin =
                    sampleAt(trace, awake_end - dwell);
                const auto end = sampleAt(trace, awake_end);
                if (app.classify(trace, begin, end).empty())
                    break;
                awake_end = std::min(awake_end + dwell, total);
            }
            timeline.addAwakeInterval(awake_start, awake_end);
            awake_start = awake_end + gap;
        }
        const auto merged =
            timeline.mergedIntervals(2.0 * trans - 1e-9);
        detections = classifyIntervals(trace, app, merged, 0.0);
        result.meanDetectionLatencySeconds =
            meanLatency(trace, app.eventType(), merged, 0.0);
        break;
      }

      case Strategy::Batching: {
        // The hub buffers sensor data while the CPU sleeps; every
        // cycle the CPU wakes and processes the whole batch, so no
        // data (and no event) is lost — at the cost of latency.
        model.hubMw = hub::msp430().activePowerMw;
        result.mcuName = hub::msp430().name;
        const double gap =
            std::max(config.sleepIntervalSeconds, 2.0 * trans);
        double awake_start = gap;
        while (awake_start < total) {
            const double awake_end =
                std::min(awake_start + dwell, total);
            timeline.addAwakeInterval(awake_start, awake_end);
            awake_start = awake_end + gap;
        }
        // Batched processing sees the entire trace.
        detections = app.classify(trace, 0, trace.sampleCount());
        result.meanDetectionLatencySeconds = meanLatency(
            trace, app.eventType(),
            timeline.mergedIntervals(2.0 * trans - 1e-9), total);
        break;
      }

      case Strategy::PredefinedActivity:
      case Strategy::Sidewinder: {
        // One hub domain with one condition: the app's own, or the
        // manufacturer's detector on the MSP430.
        const bool sidewinder = config.strategy == Strategy::Sidewinder;
        const il::Program program =
            (sidewinder ? app.wakeCondition()
                        : predefinedConditionFor(
                              app, config.predefinedThreshold))
                .compile();
        detail::HubDomain domain(trace, {&app}, config);
        const il::ExecutionPlan plan =
            il::lower(program, domain.channels,
                      il::LowerOptions{config.shareHubNodes});
        detail::HubChoice home{hub::msp430().name,
                               hub::msp430().activePowerMw};
        if (sidewinder) {
            // Placement prices the deduplicated plan, the form a
            // sharing hub runs, even when this engine does not share.
            result.placement =
                config.shareHubNodes
                    ? detail::placeOnBackend(plan, config.hubBackend)
                    : detail::placeOnBackend(
                          il::lower(program, domain.channels),
                          config.hubBackend);
            home = {result.placement.executorName,
                    result.placement.marginalPowerMw};
        }
        detail::replayEngineHub(
            domain, {&plan, 1}, config.shareHubNodes,
            [&](const il::ProgramCost &) { return home; });
        result.mcuName = home.name;
        model.hubMw = home.powerMw;
        const auto merged = detail::wakeWindows(
            timeline, {&domain, 1}, model, result.timeline);
        result.averagePowerMw = result.timeline.averagePowerMw;
        result.hubMw = model.hubMw;
        detail::scoreApp(domain, 0, merged, result);
        return result;
      }
    }

    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;
    result.hubMw = model.hubMw;
    detail::scoreDetections(app, truth, detections, result);
    return result;
}

} // namespace sidewinder::sim
