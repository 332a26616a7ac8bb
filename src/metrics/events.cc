#include "metrics/events.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "support/error.h"

namespace sidewinder::metrics {

double
MatchResult::recall() const
{
    const std::size_t total = truePositives + falseNegatives;
    if (total == 0)
        return 1.0;
    return static_cast<double>(truePositives) /
           static_cast<double>(total);
}

double
MatchResult::precision() const
{
    const std::size_t total = truePositives + falsePositives;
    if (total == 0)
        return 1.0;
    return static_cast<double>(truePositives) /
           static_cast<double>(total);
}

bool
FaultMetrics::any() const
{
    return retransmits != 0 || framesLost != 0 || framesDropped != 0 ||
           bytesCorrupted != 0 || decoderDroppedBytes != 0 ||
           hubResets != 0 || repushedConditions != 0 ||
           wakesCoalesced != 0 ||
           hubDownSeconds != 0.0 || fallbackAwakeSeconds != 0.0 ||
           fallbackEnergyMj != 0.0 || linkDownDeclared ||
           staleEpochFrames != 0 || updatesCommitted != 0 ||
           updatesRolledBack != 0 || reconfigDeltaBytes != 0 ||
           reconfigFullBytes != 0 || blindWindowSeconds != 0.0;
}

FaultMetrics &
FaultMetrics::operator+=(const FaultMetrics &other)
{
    retransmits += other.retransmits;
    framesLost += other.framesLost;
    framesDropped += other.framesDropped;
    bytesCorrupted += other.bytesCorrupted;
    decoderDroppedBytes += other.decoderDroppedBytes;
    hubResets += other.hubResets;
    repushedConditions += other.repushedConditions;
    wakesCoalesced += other.wakesCoalesced;
    hubDownSeconds += other.hubDownSeconds;
    fallbackAwakeSeconds += other.fallbackAwakeSeconds;
    fallbackEnergyMj += other.fallbackEnergyMj;
    linkDownDeclared = linkDownDeclared || other.linkDownDeclared;
    staleEpochFrames += other.staleEpochFrames;
    updatesCommitted += other.updatesCommitted;
    updatesRolledBack += other.updatesRolledBack;
    reconfigDeltaBytes += other.reconfigDeltaBytes;
    reconfigFullBytes += other.reconfigFullBytes;
    blindWindowSeconds =
        std::max(blindWindowSeconds, other.blindWindowSeconds);
    return *this;
}

namespace {

MatchResult
matchImpl(const std::vector<trace::GroundTruthEvent> &truth,
          const std::vector<double> &detection_times, double tolerance,
          bool coalesce)
{
    if (tolerance < 0.0)
        throw ConfigError("match tolerance must be non-negative");

    std::vector<double> detections = detection_times;
    std::sort(detections.begin(), detections.end());

    // Each detection matches the lowest-index unmatched event whose
    // padded interval contains it; a detection inside matched events
    // only is a duplicate, a false positive unless coalescing. One
    // sweep in time order: an event enters once the detections reach
    // its padded start, and leaves for good once they pass its padded
    // end, since later detections lie later still.
    struct Padded
    {
        double lo;
        double hi;
        std::size_t index;
    };
    std::vector<Padded> events;
    events.reserve(truth.size());
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const double lo = truth[i].startTime - tolerance;
        const double hi = truth[i].endTime + tolerance;
        // An interval with a NaN edge contains no time.
        if (!std::isnan(lo) && !std::isnan(hi))
            events.push_back({lo, hi, i});
    }
    std::sort(events.begin(), events.end(),
              [](const Padded &a, const Padded &b) { return a.lo < b.lo; });

    std::vector<double> end_of(truth.size());
    for (const Padded &e : events)
        end_of[e.index] = e.hi;

    std::vector<bool> matched(truth.size(), false);
    // Entered, unmatched events, lowest index on top. Events that
    // ended before the current detection leave lazily, when on top.
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        std::greater<>>
        open;
    // Latest padded end among entered events, matched ones included.
    double reach = -std::numeric_limits<double>::infinity();
    std::size_t next = 0;
    MatchResult result;

    for (double t : detections) {
        if (std::isnan(t)) {
            ++result.falsePositives;
            continue;
        }
        for (; next < events.size() && events[next].lo <= t; ++next) {
            open.push(events[next].index);
            reach = std::max(reach, events[next].hi);
        }
        while (!open.empty() && end_of[open.top()] < t)
            open.pop();

        if (!open.empty()) {
            matched[open.top()] = true;
            open.pop();
            ++result.truePositives;
        } else if (reach >= t) {
            // Inside an already-matched event.
            if (!coalesce)
                ++result.falsePositives;
        } else {
            ++result.falsePositives;
        }
    }

    for (bool m : matched)
        if (!m)
            ++result.falseNegatives;
    return result;
}

} // namespace

MatchResult
matchEvents(const std::vector<trace::GroundTruthEvent> &truth,
            const std::vector<double> &detection_times, double tolerance)
{
    return matchImpl(truth, detection_times, tolerance, false);
}

MatchResult
matchEventsCoalesced(const std::vector<trace::GroundTruthEvent> &truth,
                     const std::vector<double> &detection_times,
                     double tolerance)
{
    return matchImpl(truth, detection_times, tolerance, true);
}

double
savingsFraction(double always_awake_mw, double approach_mw,
                double oracle_mw)
{
    const double available = always_awake_mw - oracle_mw;
    if (available <= 0.0)
        return 0.0;
    return (always_awake_mw - approach_mw) / available;
}

} // namespace sidewinder::metrics
