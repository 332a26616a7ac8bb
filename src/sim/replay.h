/**
 * @file
 * Internal helpers shared by the trace-replay paths of the simulator
 * (sim/simulator.cc, sim/concurrent.cc) and the fault-injection
 * harness (sim/faults.cc). They replay the same traces and score
 * detections identically; these live here so no path can drift from
 * another.
 */

#ifndef SIDEWINDER_SIM_REPLAY_H
#define SIDEWINDER_SIM_REPLAY_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "apps/app.h"
#include "hub/engine.h"
#include "il/validate.h"
#include "metrics/events.h"
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
 * replay pushes, so the events are bit-identical to one.
 */
template <typename OnWake>
void
replayTrace(hub::Engine &engine, const trace::Trace &trace,
            OnWake &&on_wake)
{
    const auto mapping = channelMapping(trace, engine.channels());
    std::vector<const double *> lanes(mapping.size());
    std::array<double, replayBlockWaves> stamps{};
    const std::size_t n = trace.sampleCount();
    for (std::size_t i = 0; i < n; i += replayBlockWaves) {
        const std::size_t count = std::min(replayBlockWaves, n - i);
        for (std::size_t c = 0; c < mapping.size(); ++c)
            lanes[c] = trace.channels[mapping[c]].data() + i;
        for (std::size_t w = 0; w < count; ++w)
            stamps[w] = trace.timeOf(i + w);
        engine.pushBlock(lanes.data(), count, stamps.data());
        for (const hub::WakeEvent &event : engine.drainWakeEvents())
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

} // namespace sidewinder::sim::detail

#endif // SIDEWINDER_SIM_REPLAY_H
