#include "trace/robot_gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::trace {

namespace {

/** Device posture baselines (m/s^2), Section 3.7.1 of the paper. */
constexpr double standingZ = 9.81;
constexpr double standingY = 0.0;
constexpr double sittingZ = 8.5;
constexpr double sittingY = 4.5;

/** Per-axis Gaussian sensor noise. */
constexpr double noiseSigma = 0.08;

/** Split of active time across action kinds (Section 4.1). */
constexpr double walkShare = 0.73;
constexpr double transitionShare = 0.24;
constexpr double headbuttShare = 0.03;

/** Step cadence while walking. */
constexpr double stepPeriodSeconds = 0.625;

constexpr double transitionSeconds = 1.5;
constexpr double headbuttSeconds = 0.6;

enum class Action { Idle, Walk, Transition, Headbutt };

/** Mutable state threaded through the script synthesis. */
struct Builder
{
    Trace trace;
    Rng rng;
    bool sitting = false;
    double time = 0.0;

    explicit Builder(const RobotRunConfig &config) : rng(config.seed)
    {
        trace.name = config.name;
        trace.sampleRateHz = config.sampleRateHz;
        trace.channelNames = {"ACC_X", "ACC_Y", "ACC_Z"};
        trace.channels.assign(3, {});
    }

    double dt() const { return 1.0 / trace.sampleRateHz; }

    void
    pushSample(double x, double y, double z)
    {
        trace.channels[0].push_back(x + rng.gaussian(0.0, noiseSigma));
        trace.channels[1].push_back(y + rng.gaussian(0.0, noiseSigma));
        trace.channels[2].push_back(z + rng.gaussian(0.0, noiseSigma));
        time += dt();
    }

    void
    addEvent(const std::string &type, double start, double end)
    {
        trace.events.push_back(GroundTruthEvent{type, start, end});
    }

    double postureY() const { return sitting ? sittingY : standingY; }
    double postureZ() const { return sitting ? sittingZ : standingZ; }

    /** Standing or sitting still for @p seconds. */
    void
    emitIdle(double seconds)
    {
        const std::size_t n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i)
            pushSample(0.0, postureY(), postureZ());
    }

    /**
     * Walking for @p seconds: per-step x bumps whose filtered peaks
     * land inside the detector band [2.5, 4.5], with gait wobble on
     * the other axes.
     */
    void
    emitWalk(double seconds)
    {
        const double start = time;
        const std::size_t n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        const double step_amp = rng.uniform(3.2, 4.2);
        // Start mid-cycle so the first bump is not adjacent to the
        // previous segment's last one, and drop any bump that would
        // be truncated by the segment end (a cut-off half step would
        // create two peaks inside one refractory window).
        double step_phase = 0.5;
        bool step_logged = false;
        bool bump_fits = true;
        const std::size_t bump_samples = static_cast<std::size_t>(
            0.4 * stepPeriodSeconds * trace.sampleRateHz);

        for (std::size_t i = 0; i < n; ++i) {
            step_phase += dt() / stepPeriodSeconds;
            if (step_phase >= 1.0) {
                step_phase -= 1.0;
                step_logged = false;
                bump_fits = i + bump_samples < n;
            }

            // The x bump occupies the first 40% of each step cycle.
            double x = 0.0;
            if (step_phase < 0.4 && bump_fits) {
                const double s =
                    std::sin(std::numbers::pi * step_phase / 0.4);
                x = step_amp * s * s;
                if (!step_logged && step_phase >= 0.2) {
                    // Peak of the bump: log one ground-truth step.
                    addEvent(event_type::step, time - 0.05,
                             time + 0.05);
                    step_logged = true;
                }
            }

            const double wobble = 2.0 * std::numbers::pi * step_phase;
            const double y =
                postureY() + 0.7 * std::sin(wobble);
            const double z =
                postureZ() + 0.5 * std::sin(2.0 * wobble);
            pushSample(x, y, z);
        }
        addEvent(event_type::walkSegment, start, time);
    }

    /** Smooth sit<->stand posture change over transitionSeconds. */
    void
    emitTransition()
    {
        const double start = time;
        const double from_y = postureY();
        const double from_z = postureZ();
        sitting = !sitting;
        const double to_y = postureY();
        const double to_z = postureZ();

        const std::size_t n = static_cast<std::size_t>(
            transitionSeconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i) {
            const double phase =
                static_cast<double>(i) / static_cast<double>(n);
            // Cosine ease between postures; a mild x jolt stays well
            // below the step detector's 2.5 m/s^2 band.
            const double blend =
                0.5 * (1.0 - std::cos(std::numbers::pi * phase));
            const double jolt =
                1.2 * std::sin(std::numbers::pi * phase);
            pushSample(jolt, from_y + (to_y - from_y) * blend,
                       from_z + (to_z - from_z) * blend);
        }
        addEvent(event_type::transition, start, time);
    }

    /** Sudden forward head movement: y dips into [-6.75, -3.75]. */
    void
    emitHeadbutt()
    {
        const double start = time;
        const double depth = rng.uniform(4.3, 6.2);
        const std::size_t n = static_cast<std::size_t>(
            headbuttSeconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i) {
            const double phase =
                static_cast<double>(i) / static_cast<double>(n);
            const double s = std::sin(std::numbers::pi * phase);
            pushSample(0.3 * s, postureY() - depth * s * s,
                       postureZ() - 0.4 * s);
        }
        addEvent(event_type::headbutt, start, time);
    }
};

} // namespace

double
robotGroupIdleFraction(int group)
{
    switch (group) {
      case 1: return 0.9;
      case 2: return 0.5;
      case 3: return 0.1;
    }
    throw ConfigError("robot activity group must be 1, 2 or 3");
}

int
robotGroupRunCount(int group)
{
    switch (group) {
      case 1: return 9;
      case 2: return 6;
      case 3: return 3;
    }
    throw ConfigError("robot activity group must be 1, 2 or 3");
}

Trace
generateRobotRun(const RobotRunConfig &config)
{
    if (config.idleFraction < 0.0 || config.idleFraction >= 1.0)
        throw ConfigError("idleFraction must be in [0, 1)");
    if (config.durationSeconds <= 0.0 || config.sampleRateHz <= 0.0)
        throw ConfigError("robot run duration and rate must be positive");

    Builder b(config);

    // Time budgets per category.
    const double total = config.durationSeconds;
    const double idle_budget = total * config.idleFraction;
    const double active_budget = total - idle_budget;
    const double walk_budget = active_budget * walkShare;
    const double transition_budget = active_budget * transitionShare;
    const double headbutt_budget = active_budget * headbuttShare;

    double idle_used = 0.0;
    double walk_used = 0.0;
    double transition_used = 0.0;
    double headbutt_used = 0.0;

    // An action may start only if it completes with a second of
    // trailing context before the trace ends — a transition cut off
    // by the recording boundary is undetectable even when always
    // awake, which would make 100%-recall calibration impossible.
    auto fits = [&](double seconds) {
        return b.time + seconds + 1.0 <= total;
    };

    // The script alternates idle and active segments; the next action
    // is drawn with probability proportional to its remaining budget,
    // which randomizes order (as the paper's scripts did) while
    // converging to the configured time shares.
    while (b.time < total - 1.0) {
        const std::vector<double> weights = {
            std::max(idle_budget - idle_used, 0.0),
            std::max(walk_budget - walk_used, 0.0),
            std::max(transition_budget - transition_used, 0.0),
            std::max(headbutt_budget - headbutt_used, 0.0),
        };
        const double remaining =
            weights[0] + weights[1] + weights[2] + weights[3];
        if (remaining <= 0.0)
            break;

        const double active_start = b.time;
        switch (static_cast<Action>(b.rng.weightedIndex(weights))) {
          case Action::Idle: {
            const double seconds = std::min(
                b.rng.uniform(3.0, 10.0), total - b.time);
            b.emitIdle(seconds);
            idle_used += b.time - active_start;
            continue;
          }
          case Action::Walk: {
            // Walking requires standing.
            const double stand_up =
                b.sitting ? transitionSeconds : 0.0;
            if (!fits(stand_up + 3.0 * stepPeriodSeconds)) {
                b.emitIdle(total - b.time);
                continue;
            }
            if (b.sitting) {
                b.emitTransition();
                transition_used += transitionSeconds;
            }
            const double walk_start = b.time;
            const double seconds = std::min(
                b.rng.uniform(5.0, 14.0), total - b.time - 1.0);
            if (seconds > 2.0 * stepPeriodSeconds)
                b.emitWalk(seconds);
            walk_used += b.time - walk_start;
            break;
          }
          case Action::Transition:
            if (!fits(transitionSeconds)) {
                b.emitIdle(total - b.time);
                continue;
            }
            b.emitTransition();
            transition_used += transitionSeconds;
            break;
          case Action::Headbutt: {
            const double stand_up =
                b.sitting ? transitionSeconds : 0.0;
            if (!fits(stand_up + headbuttSeconds)) {
                b.emitIdle(total - b.time);
                continue;
            }
            if (b.sitting) {
                b.emitTransition();
                transition_used += transitionSeconds;
            }
            b.emitHeadbutt();
            headbutt_used += headbuttSeconds;
            break;
          }
        }
        if (b.time > active_start)
            b.addEvent(event_type::activeSegment, active_start, b.time);
    }

    // Pad the tail with idle so every run has the exact duration.
    if (b.time < total)
        b.emitIdle(total - b.time);

    std::sort(b.trace.events.begin(), b.trace.events.end(),
              [](const GroundTruthEvent &x, const GroundTruthEvent &y) {
                  return x.startTime < y.startTime;
              });
    b.trace.checkInvariants();
    // A member is copied on return unless moved explicitly.
    return std::move(b.trace);
}

std::vector<Trace>
generateRobotCorpus(double duration_seconds, std::uint64_t seed)
{
    std::vector<Trace> corpus;
    Rng master(seed);
    for (int group = 1; group <= 3; ++group) {
        const int runs = robotGroupRunCount(group);
        for (int run = 0; run < runs; ++run) {
            RobotRunConfig config;
            config.idleFraction = robotGroupIdleFraction(group);
            config.durationSeconds = duration_seconds;
            config.seed = master.fork().uniformInt(1, 1'000'000'000);
            config.name = "robot-g" + std::to_string(group) + "-run" +
                          std::to_string(run);
            corpus.push_back(generateRobotRun(config));
        }
    }
    return corpus;
}

} // namespace sidewinder::trace
