#include "trace/types.h"

#include <algorithm>

#include "support/error.h"

namespace sidewinder::trace {

std::size_t
Trace::sampleCount() const
{
    return channels.empty() ? 0 : channels.front().size();
}

double
Trace::durationSeconds() const
{
    if (sampleRateHz <= 0.0)
        return 0.0;
    return static_cast<double>(sampleCount()) / sampleRateHz;
}

std::size_t
Trace::channelIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < channelNames.size(); ++i)
        if (channelNames[i] == name)
            return i;
    throw ConfigError("trace '" + this->name + "' has no channel '" +
                      name + "'");
}

std::vector<GroundTruthEvent>
Trace::eventsOfType(const std::string &type) const
{
    std::vector<GroundTruthEvent> out;
    for (const auto &ev : events)
        if (ev.type == type)
            out.push_back(ev);
    return out;
}

double
Trace::eventSeconds(const std::string &type) const
{
    double total = 0.0;
    for (const auto &ev : events)
        if (ev.type == type)
            total += ev.duration();
    return total;
}

void
Trace::checkInvariants() const
{
    if (sampleRateHz <= 0.0)
        throw InternalError("trace '" + name + "': non-positive rate");
    if (channelNames.size() != channels.size())
        throw InternalError("trace '" + name +
                            "': channel name/data count mismatch");
    for (const auto &ch : channels)
        if (ch.size() != sampleCount())
            throw InternalError("trace '" + name +
                                "': channel length mismatch");

    const double duration = durationSeconds();
    for (const auto &ev : events) {
        if (ev.startTime < 0.0 || ev.endTime < ev.startTime ||
            ev.startTime > duration + 1e-9)
            throw InternalError("trace '" + name +
                                "': event out of range");
    }
    const bool sorted = std::is_sorted(
        events.begin(), events.end(),
        [](const GroundTruthEvent &a, const GroundTruthEvent &b) {
            return a.startTime < b.startTime;
        });
    if (!sorted)
        throw InternalError("trace '" + name + "': events not sorted");
}

} // namespace sidewinder::trace
