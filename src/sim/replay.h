/**
 * @file
 * The device-replay core behind every hub-triggered driver:
 * simulate() under Predefined Activity and Sidewinder,
 * simulateConcurrent(), simulateDevice() and simulateSupervised().
 * Only the trigger source differs between them — a direct hub::Engine
 * per sensor domain (replayEngineHub), or the supervised transport
 * stack (sim/faults.cc). Everything after the triggers is written
 * once here: the awake-window rule (HubDomain), the wake, merge and
 * pricing of the timeline (wakeWindows), and each app's classify,
 * score and latency (scoreApp).
 */

#ifndef SIDEWINDER_SIM_REPLAY_H
#define SIDEWINDER_SIM_REPLAY_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "apps/app.h"
#include "hub/engine.h"
#include "hub/placer.h"
#include "il/validate.h"
#include "metrics/events.h"
#include "sim/concurrent.h"
#include "sim/timeline.h"
#include "trace/types.h"

namespace sidewinder::sim::detail {

/** Samples index corresponding to time @p t (clamped). */
inline std::size_t
sampleAt(const trace::Trace &trace, double t)
{
    if (t <= 0.0)
        return 0;
    const auto idx = static_cast<std::size_t>(t * trace.sampleRateHz);
    return std::min(idx, trace.sampleCount());
}

/** Map engine channel order to trace channel indexes. */
inline std::vector<std::size_t>
channelMapping(const trace::Trace &trace,
               const std::vector<il::ChannelInfo> &channels)
{
    std::vector<std::size_t> mapping;
    mapping.reserve(channels.size());
    for (const auto &ch : channels)
        mapping.push_back(trace.channelIndex(ch.name));
    return mapping;
}

/**
 * Waves per Engine::pushBlock call on the fault-free replay path: the
 * fleet's block size, and the measured sweet spot — at 256 waves the
 * lanes of a 256-point-window graph spill L1 (docs/performance.md).
 */
inline constexpr std::size_t replayBlockWaves = 64;

/**
 * Replay all of @p trace through @p engine, replayBlockWaves waves per
 * Engine::pushBlock call with the lanes read in place from the trace's
 * channel vectors, and pass every wake event to @p on_wake in wave
 * order. Wave i carries trace.timeOf(i), the timestamp a per-sample
 * replay pushes, so the events are bit-identical to one; the engine
 * evaluates it only for the waves that wake.
 */
template <typename OnWake>
void
replayTrace(hub::Engine &engine, const trace::Trace &trace,
            OnWake &&on_wake)
{
    const auto mapping = channelMapping(trace, engine.channels());
    std::vector<const double *> lanes(mapping.size());
    std::vector<hub::WakeEvent> wakes;
    const std::size_t n = trace.sampleCount();
    for (std::size_t i = 0; i < n; i += replayBlockWaves) {
        const std::size_t count = std::min(replayBlockWaves, n - i);
        for (std::size_t c = 0; c < mapping.size(); ++c)
            lanes[c] = trace.channels[mapping[c]].data() + i;
        engine.pushBlock(lanes.data(), count, [&trace, i](std::size_t w) {
            return trace.timeOf(i + w);
        });
        engine.drainWakeEvents(wakes);
        for (const hub::WakeEvent &event : wakes)
            on_wake(event);
    }
}

/** Run the application classifier over merged awake intervals. */
inline std::vector<double>
classifyIntervals(const trace::Trace &trace,
                  const apps::Application &app,
                  const std::vector<Interval> &intervals,
                  double lookback)
{
    std::vector<double> detections;
    double covered_until = 0.0;
    for (const auto &interval : intervals) {
        // Avoid re-classifying overlapping lookback regions.
        const double begin_t =
            std::max(interval.start - lookback, covered_until);
        covered_until = interval.end;
        const auto begin = sampleAt(trace, begin_t);
        const auto end = sampleAt(trace, interval.end);
        if (end <= begin)
            continue;
        for (double t : app.classify(trace, begin, end))
            detections.push_back(t);
    }
    std::sort(detections.begin(), detections.end());
    return detections;
}

/**
 * Match @p detections against @p truth under @p app's matching rule
 * and record the match, recall and precision on @p result (a
 * SimResult or a ConcurrentAppResult).
 */
template <typename Result>
void
scoreDetections(const apps::Application &app,
                const std::vector<trace::GroundTruthEvent> &truth,
                const std::vector<double> &detections, Result &result)
{
    result.detection =
        app.coalesceDetections()
            ? metrics::matchEventsCoalesced(truth, detections,
                                            app.matchTolerance())
            : metrics::matchEvents(truth, detections,
                                   app.matchTolerance());
    result.recall = result.detection.recall();
    result.precision = result.detection.precision();
}

/**
 * Mean delay from event start until the device is awake with the
 * event's data available (0 when the device was already awake).
 */
inline double
meanLatency(const trace::Trace &trace, const std::string &event_type,
            const std::vector<Interval> &intervals, double lookback)
{
    const auto events = trace.eventsOfType(event_type);
    if (events.empty())
        return 0.0;

    double total = 0.0;
    std::size_t counted = 0;
    for (const auto &ev : events) {
        for (const auto &interval : intervals) {
            // The event is processable in this interval if the awake
            // window (plus lookback) covers the event start.
            if (interval.end < ev.startTime)
                continue;
            if (interval.start - lookback > ev.endTime)
                break;
            total += std::max(0.0, interval.start - ev.startTime);
            ++counted;
            break;
        }
    }
    return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

/**
 * Home @p plan on @p backend's executor space: the shipped MCUs, the
 * iCE40 fabric, or the whole platform under the placer.
 *
 * @throws CapabilityError when no executor of the space can home it.
 */
hub::PlacementDecision placeOnBackend(const il::ExecutionPlan &plan,
                                      HubBackend backend);

/**
 * One sensor domain of a replay: the trace its hub sees, the apps
 * whose conditions run there, and what each condition raised.
 */
struct HubDomain
{
    const trace::Trace *trace = nullptr;
    /** Apps on this hub; condition id i + 1 is apps[i]'s. */
    std::vector<const apps::Application *> apps;
    /** The one synchronous channel set the hub samples, which every
        condition on it is lowered against. */
    std::vector<il::ChannelInfo> channels;
    /** Trigger times of each app's condition, by app index. */
    std::vector<std::vector<double>> triggers;
    /**
     * The awake-window rule: each trigger keeps the phone awake for
     * dwell seconds after its wake transition, and each app classifies
     * lookback seconds of history before every awake window. Each is
     * SimConfig's value when set (> 0), otherwise the largest any app
     * on this hub recommends.
     */
    double dwell = 0.0;
    double lookback = 0.0;

    /**
     * @param apps At least one app.
     * @throws ConfigError unless every app reads the first app's
     *     channels (names and rates) and each rate is the trace's.
     */
    HubDomain(const trace::Trace &trace,
              std::vector<const apps::Application *> apps,
              const SimConfig &config);
};

/** The executor a hub runs on and the power it adds, mW. */
struct HubChoice
{
    std::string name;
    double powerMw = 0.0;
};

/**
 * The direct-engine trigger source: install @p conditions (one plan
 * per app of @p domain, lowered against domain.channels) as ids 1..N
 * on a fresh hub::Engine, the path the hub runtime takes at
 * admission; let @p choose pick the hub from their combined load
 * (engine cycles and RAM, summed wake bounds); then replay the
 * domain's trace and record every condition's triggers on @p domain.
 *
 * @returns the hub's name, power, node count and cycle demand (apps
 *     left empty for scoreApp).
 */
DeviceDomainResult replayEngineHub(
    HubDomain &domain, std::span<const il::ExecutionPlan> conditions,
    bool share_nodes,
    const std::function<HubChoice(const il::ProgramCost &)> &choose);

/**
 * Wake the phone one transition after every trigger of @p domains for
 * its domain's dwell, merge the awake windows and price them under
 * @p model (its hubMw the summed hub power) into @p priced.
 * @p timeline may already hold other awake windows, such as the
 * supervised Duty-Cycling fallback.
 *
 * @returns the merged awake windows.
 */
std::vector<Interval> wakeWindows(DeviceTimeline &timeline,
                                  std::span<const HubDomain> domains,
                                  const PowerModel &model,
                                  TimelineSummary &priced);

/**
 * Classify app @p a of @p domain over the device's @p merged awake
 * windows, and record its trigger count, match, recall, precision and
 * mean detection latency on @p result (a SimResult or a
 * ConcurrentAppResult).
 */
template <typename Result>
void
scoreApp(const HubDomain &domain, std::size_t a,
         const std::vector<Interval> &merged, Result &result)
{
    const trace::Trace &trace = *domain.trace;
    const apps::Application &app = *domain.apps[a];
    result.hubTriggerCount = domain.triggers[a].size();
    scoreDetections(app, trace.eventsOfType(app.eventType()),
                    classifyIntervals(trace, app, merged, domain.lookback),
                    result);
    result.meanDetectionLatencySeconds =
        meanLatency(trace, app.eventType(), merged, domain.lookback);
}

} // namespace sidewinder::sim::detail

#endif // SIDEWINDER_SIM_REPLAY_H
