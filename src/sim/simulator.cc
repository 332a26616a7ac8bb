#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "apps/predefined.h"
#include "hub/engine.h"
#include "hub/fpga.h"
#include "hub/mcu.h"
#include "hub/placer.h"
#include "il/lower.h"
#include "sim/replay.h"
#include "support/error.h"

namespace sidewinder::sim {

namespace {

using detail::classifyIntervals;
using detail::meanLatency;
using detail::sampleAt;

/** Event-driven strategies: the hub condition's trigger times. */
std::vector<double>
runHubCondition(const trace::Trace &trace,
                const std::vector<il::ChannelInfo> &channels,
                const il::Program &program, bool share_nodes)
{
    hub::Engine engine(channels, share_nodes);
    engine.addCondition(
        1, il::lower(program, channels, il::LowerOptions{share_nodes}));

    std::vector<double> trigger_times;
    detail::replayTrace(engine, trace, [&](const hub::WakeEvent &event) {
        trigger_times.push_back(event.timestamp);
    });
    return trigger_times;
}

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
    const double dwell = config.awakeDwellSeconds;
    const double event_dwell =
        config.eventDwellSeconds > 0.0
            ? config.eventDwellSeconds
            : app.recommendedEventDwellSeconds();
    const double lookback = config.lookbackSeconds > 0.0
                                ? config.lookbackSeconds
                                : app.recommendedLookbackSeconds();

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
        core::ProcessingPipeline pipeline =
            config.strategy == Strategy::Sidewinder
                ? app.wakeCondition()
                : predefinedConditionFor(app,
                                         config.predefinedThreshold);
        const il::Program program = pipeline.compile();
        const auto channels = app.channels();

        if (config.strategy == Strategy::Sidewinder) {
            const il::ExecutionPlan plan = il::lower(program, channels);
            std::vector<hub::ExecutorModel> space;
            switch (config.hubBackend) {
              case HubBackend::Microcontroller:
                for (const auto &mcu : hub::availableMcus())
                    space.push_back(hub::mcuExecutor(mcu));
                break;
              case HubBackend::Fpga:
                space.push_back(hub::fpgaExecutor(hub::ice40Hub()));
                break;
              case HubBackend::Heterogeneous:
                space = hub::platformExecutors();
                break;
            }
            const hub::PlacementDecision home =
                hub::placeCondition(plan, space);
            if (!home.placed()) {
                if (config.hubBackend == HubBackend::Fpga)
                    throw CapabilityError(
                        "condition does not fit the FPGA fabric");
                // Re-derive selectMcu's diagnostic (names the binding
                // budget); unreachable when the space holds the
                // always-feasible AP fallback.
                hub::selectMcuForCost(plan.cost());
                throw CapabilityError(
                    "no hub executor can home the condition");
            }
            model.hubMw = home.marginalPowerMw;
            result.mcuName = home.executorName;
            result.placement = home;
        } else {
            const hub::McuModel mcu = hub::msp430();
            model.hubMw = mcu.activePowerMw;
            result.mcuName = mcu.name;
        }

        const auto trigger_times = runHubCondition(
            trace, channels, program, config.shareHubNodes);
        result.hubTriggerCount = trigger_times.size();
        for (double t_e : trigger_times)
            timeline.addAwakeInterval(
                t_e + trans, t_e + trans + event_dwell);

        const auto merged =
            timeline.mergedIntervals(2.0 * trans - 1e-9);
        detections =
            classifyIntervals(trace, app, merged, lookback);
        result.meanDetectionLatencySeconds =
            meanLatency(trace, app.eventType(), merged, lookback);
        break;
      }
    }

    result.timeline = timeline.summarize(model);
    result.averagePowerMw = result.timeline.averagePowerMw;
    result.hubMw = model.hubMw;
    detail::scoreDetections(app, truth, detections, result);
    return result;
}

} // namespace sidewinder::sim
