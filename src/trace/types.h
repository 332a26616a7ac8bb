/**
 * @file
 * Trace containers shared by the generators, the hub runtime, and the
 * trace-driven simulator (Section 4 of the paper: "Our evaluation is
 * based on a trace-driven simulation").
 *
 * A Trace is a set of equal-length, equal-rate sample streams (one per
 * sensor channel) plus the ground-truth event annotations the robot /
 * mixing scripts logged.
 */

#ifndef SIDEWINDER_TRACE_TYPES_H
#define SIDEWINDER_TRACE_TYPES_H

#include <cstddef>
#include <string>
#include <vector>

namespace sidewinder::trace {

/** One annotated ground-truth event, e.g. a step or a siren. */
struct GroundTruthEvent
{
    /** Event type label, e.g. "step", "siren", "phrase". */
    std::string type;
    /** Event start, seconds from trace start. */
    double startTime = 0.0;
    /** Event end, seconds from trace start (>= startTime). */
    double endTime = 0.0;

    /** Event midpoint, seconds. */
    double midTime() const { return 0.5 * (startTime + endTime); }

    /** Event duration, seconds. */
    double duration() const { return endTime - startTime; }
};

/** A multi-channel sensor recording with ground-truth annotations. */
struct Trace
{
    /** Human-readable identity, e.g. "robot-g1-run3". */
    std::string name;
    /** Common sampling rate of all channels, Hz. */
    double sampleRateHz = 0.0;
    /** Channel names, e.g. {"ACC_X","ACC_Y","ACC_Z"} or {"AUDIO"}. */
    std::vector<std::string> channelNames;
    /** Per-channel sample arrays; all the same length. */
    std::vector<std::vector<double>> channels;
    /** Ground-truth events, sorted by start time. */
    std::vector<GroundTruthEvent> events;

    /** Number of samples per channel. */
    std::size_t sampleCount() const;

    /** Recording length in seconds. */
    double durationSeconds() const;

    /** Timestamp of sample @p index, seconds from trace start (inline:
        the replay driver stamps every waking wave with it). */
    double
    timeOf(std::size_t index) const
    {
        return static_cast<double>(index) / sampleRateHz;
    }

    /** Index of the channel named @p name; throws if absent. */
    std::size_t channelIndex(const std::string &name) const;

    /** Events whose type equals @p type, in start-time order. */
    std::vector<GroundTruthEvent>
    eventsOfType(const std::string &type) const;

    /** Total duration covered by events of @p type, seconds. */
    double eventSeconds(const std::string &type) const;

    /** Verify channel lengths agree and events are ordered/in-range. */
    void checkInvariants() const;
};

/** Standard ground-truth event type labels used by the generators. */
namespace event_type {
inline const std::string step = "step";
inline const std::string transition = "transition";
inline const std::string headbutt = "headbutt";
inline const std::string walkSegment = "walk";
inline const std::string activeSegment = "active";
inline const std::string gesture = "gesture";
inline const std::string siren = "siren";
inline const std::string music = "music";
inline const std::string speech = "speech";
inline const std::string phrase = "phrase";
} // namespace event_type

} // namespace sidewinder::trace

#endif // SIDEWINDER_TRACE_TYPES_H
