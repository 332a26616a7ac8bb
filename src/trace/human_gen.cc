#include "trace/human_gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::trace {

namespace {

constexpr double gravityZ = 9.81;
constexpr double noiseSigma = 0.1;
constexpr double stepPeriodSeconds = 0.55;

/**
 * Non-event motion mix per scenario: fractions of total time spent in
 * each kind of distractor activity. Remaining time (after walking) is
 * idle.
 */
struct ScenarioProfile
{
    double walkFraction;
    double vibrationFraction; ///< vehicle ride (commute)
    double handlingFraction;  ///< carrying / shelving (retail)
    double fidgetFraction;    ///< desk fidgeting (office)
};

ScenarioProfile
profileFor(HumanScenario scenario)
{
    switch (scenario) {
      case HumanScenario::Commute:
        return {0.25, 0.35, 0.05, 0.05};
      case HumanScenario::Retail:
        return {0.37, 0.0, 0.30, 0.05};
      case HumanScenario::Office:
        return {0.20, 0.0, 0.05, 0.15};
    }
    throw ConfigError("unknown human scenario");
}

struct Builder
{
    Trace trace;
    Rng rng;
    double time = 0.0;

    Builder(const HumanTraceConfig &config) : rng(config.seed)
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

    void
    emitIdle(double seconds)
    {
        const auto n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i)
            pushSample(0.0, 0.0, gravityZ);
    }

    /** Human gait: x-axis step bumps peaking inside [2.5, 4.5]. */
    void
    emitWalk(double seconds)
    {
        const double start = time;
        const auto n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        // Floor chosen so the 5-sample smoothed peak of the narrow
        // human bump (0.22 s at 50 Hz) stays inside the detector's
        // [2.5, 4.5] band.
        const double step_amp = rng.uniform(3.3, 4.3);
        // Mid-cycle start and no truncated trailing bump; see the
        // robot generator for the rationale.
        double phase = 0.5;
        bool logged = false;
        bool bump_fits = true;
        const auto bump_samples = static_cast<std::size_t>(
            0.4 * stepPeriodSeconds * trace.sampleRateHz);

        for (std::size_t i = 0; i < n; ++i) {
            phase += dt() / stepPeriodSeconds;
            if (phase >= 1.0) {
                phase -= 1.0;
                logged = false;
                bump_fits = i + bump_samples < n;
            }
            double x = 0.0;
            if (phase < 0.4 && bump_fits) {
                const double s =
                    std::sin(std::numbers::pi * phase / 0.4);
                x = step_amp * s * s;
                if (!logged && phase >= 0.2) {
                    addEvent(event_type::step, time - 0.05, time + 0.05);
                    logged = true;
                }
            }
            const double w = 2.0 * std::numbers::pi * phase;
            pushSample(x, 0.8 * std::sin(w),
                       gravityZ + 0.7 * std::sin(2.0 * w));
        }
        addEvent(event_type::walkSegment, start, time);
    }

    /**
     * Vehicle vibration: broadband low-amplitude shaking on all axes.
     * Looks like significant motion to a generic magnitude detector
     * but produces no x peaks inside the step band.
     */
    void
    emitVibration(double seconds)
    {
        const auto n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i) {
            pushSample(rng.gaussian(0.0, 0.5),
                       rng.gaussian(0.0, 0.6),
                       gravityZ + rng.gaussian(0.0, 0.8));
        }
    }

    /**
     * Object handling: occasional large jerks on y/z with x spikes
     * that overshoot the step band (> 4.5) or stay below it (< 2.5).
     */
    void
    emitHandling(double seconds)
    {
        const auto n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        double jerk_left = 0.0;
        double jerk_amp = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (jerk_left <= 0.0 && rng.chance(0.01)) {
                jerk_left = rng.uniform(0.2, 0.5);
                jerk_amp = rng.chance(0.5) ? rng.uniform(5.0, 8.0)
                                           : rng.uniform(0.5, 2.0);
            }
            double x = 0.0;
            double y = 0.0;
            if (jerk_left > 0.0) {
                x = jerk_amp;
                y = 0.5 * jerk_amp;
                jerk_left -= dt();
            }
            pushSample(x, y + rng.gaussian(0.0, 0.4),
                       gravityZ + rng.gaussian(0.0, 0.5));
        }
    }

    /**
     * Deliberate double-shake gesture (uWave-style): two 0.4 s bursts
     * of fast (8 Hz), strong (7-9 m/s^2) x-axis oscillation with a
     * 0.4 s pause between them — long enough that a 16-sample
     * analysis window always fits inside the pause regardless of
     * alignment, so the two bursts never fuse. The high frequency
     * keeps the smoothed peaks below the step detector's band, so
     * gestures and steps do not cross-trigger.
     */
    void
    emitGesture()
    {
        const double start = time;
        const double amp = rng.uniform(7.0, 9.0);
        auto burst = [&](double seconds) {
            const auto n = static_cast<std::size_t>(
                seconds * trace.sampleRateHz);
            for (std::size_t i = 0; i < n; ++i) {
                const double w =
                    2.0 * std::numbers::pi * 8.0 * (time - start);
                pushSample(amp * std::sin(w),
                           0.4 * amp * std::sin(w + 1.0), gravityZ);
            }
        };
        burst(0.4);
        emitIdle(0.4);
        burst(0.4);
        addEvent(event_type::gesture, start, time);
        // A beat of stillness after the gesture: two back-to-back
        // gestures would otherwise fuse their bursts into one
        // ambiguous four-burst pattern.
        emitIdle(1.0);
    }

    /** Desk fidgeting: small-amplitude swaying. */
    void
    emitFidget(double seconds)
    {
        const double start_phase = rng.uniform(0.0, 1.0);
        const auto n =
            static_cast<std::size_t>(seconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i) {
            const double w =
                2.0 * std::numbers::pi *
                (start_phase + 0.8 * time);
            pushSample(0.6 * std::sin(w), 0.8 * std::cos(w),
                       gravityZ + 0.4 * std::sin(0.5 * w));
        }
    }
};

} // namespace

std::string
humanScenarioName(HumanScenario scenario)
{
    switch (scenario) {
      case HumanScenario::Commute: return "commute";
      case HumanScenario::Retail: return "retail";
      case HumanScenario::Office: return "office";
    }
    return "?";
}

Trace
generateHumanTrace(const HumanTraceConfig &config)
{
    if (config.durationSeconds <= 0.0 || config.sampleRateHz <= 0.0)
        throw ConfigError("human trace duration and rate must be "
                          "positive");

    const ScenarioProfile profile = profileFor(config.scenario);
    Builder b(config);

    const double total = config.durationSeconds;
    const double walk_budget = total * profile.walkFraction;
    const double vib_budget = total * profile.vibrationFraction;
    const double handle_budget = total * profile.handlingFraction;
    const double fidget_budget = total * profile.fidgetFraction;
    const double gesture_budget = total * config.gestureFraction;
    const double idle_budget = total - walk_budget - vib_budget -
                               handle_budget - fidget_budget -
                               gesture_budget;

    constexpr int kinds = 6;
    double used[kinds] = {};
    const double budgets[kinds] = {idle_budget,   walk_budget,
                                   vib_budget,    handle_budget,
                                   fidget_budget, gesture_budget};

    while (b.time < total - 2.0) {
        std::vector<double> weights(kinds);
        double remaining = 0.0;
        for (int k = 0; k < kinds; ++k) {
            weights[k] = std::max(budgets[k] - used[k], 0.0);
            remaining += weights[k];
        }
        if (remaining <= 0.0)
            break;

        const auto kind = b.rng.weightedIndex(weights);
        if (kind >= kinds)
            throw InternalError("human generator: bad activity index");
        const double start = b.time;
        const double seconds =
            std::min(b.rng.uniform(5.0, 20.0), total - b.time);

        switch (kind) {
          case 0: b.emitIdle(seconds); break;
          case 1: b.emitWalk(seconds); break;
          case 2: b.emitVibration(seconds); break;
          case 3: b.emitHandling(seconds); break;
          case 4: b.emitFidget(seconds); break;
          case 5: b.emitGesture(); break;
        }
        used[kind] += b.time - start;
        if (kind != 0)
            b.addEvent(event_type::activeSegment, start, b.time);
    }

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
generateHumanCorpus(double duration_seconds, std::uint64_t seed)
{
    Rng master(seed);
    std::vector<Trace> corpus;
    const HumanScenario scenarios[] = {HumanScenario::Commute,
                                       HumanScenario::Retail,
                                       HumanScenario::Office};
    int subject = 1;
    for (HumanScenario scenario : scenarios) {
        HumanTraceConfig config;
        config.scenario = scenario;
        config.durationSeconds = duration_seconds;
        config.seed = master.fork().uniformInt(1, 1'000'000'000);
        config.name = "human-s" + std::to_string(subject) + "-" +
                      humanScenarioName(scenario);
        corpus.push_back(generateHumanTrace(config));
        ++subject;
    }
    return corpus;
}

} // namespace sidewinder::trace
