#include "trace/audio_gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::trace {

namespace {

constexpr double twoPi = 2.0 * std::numbers::pi;

/** Ambient background amplitude per environment. */
struct Ambience
{
    double noiseAmp;   ///< broadband noise level
    double humAmp;     ///< mains hum level (office)
    double babbleAmp;  ///< slow modulated chatter level (coffee shop)
    double rumbleAmp;  ///< low-frequency traffic/wind level (outdoors)
};

Ambience
ambienceFor(AudioEnvironment environment)
{
    switch (environment) {
      case AudioEnvironment::Office:
        return {0.010, 0.006, 0.0, 0.0};
      case AudioEnvironment::CoffeeShop:
        return {0.035, 0.0, 0.025, 0.0};
      case AudioEnvironment::Outdoors:
        return {0.020, 0.0, 0.0, 0.030};
    }
    throw ConfigError("unknown audio environment");
}

/** One scheduled segment of the mixing script. */
struct Segment
{
    enum class Kind { Ambient, Siren, Music, Speech } kind;
    double seconds;
    bool hasPhrase = false;
};

struct Builder
{
    Trace trace;
    Rng rng;
    Ambience ambience;
    double time = 0.0;
    double dt;

    Builder(const AudioTraceConfig &config)
        : rng(config.seed), ambience(ambienceFor(config.environment)),
          dt(1.0 / config.sampleRateHz)
    {
        trace.name = config.name;
        trace.sampleRateHz = config.sampleRateHz;
        trace.channelNames = {"AUDIO"};
        trace.channels.assign(1, {});
        trace.channels[0].reserve(static_cast<std::size_t>(
            config.durationSeconds * config.sampleRateHz));
    }

    /** Ambient background sample for the current instant. */
    double
    ambientSample()
    {
        double v = rng.gaussian(0.0, ambience.noiseAmp);
        if (ambience.humAmp > 0.0)
            v += ambience.humAmp * std::sin(twoPi * 120.0 * time);
        if (ambience.babbleAmp > 0.0) {
            const double mod =
                0.5 + 0.5 * std::sin(twoPi * 0.7 * time) *
                          std::sin(twoPi * 0.13 * time);
            v += rng.gaussian(0.0, ambience.babbleAmp * mod);
        }
        if (ambience.rumbleAmp > 0.0) {
            v += ambience.rumbleAmp *
                 (std::sin(twoPi * 17.0 * time) +
                  0.6 * std::sin(twoPi * 31.0 * time + 1.0));
        }
        return v;
    }

    void
    push(double value)
    {
        trace.channels[0].push_back(value);
        time += dt;
    }

    void
    addEvent(const std::string &type, double start, double end)
    {
        trace.events.push_back(GroundTruthEvent{type, start, end});
    }

    void
    emitAmbient(double seconds)
    {
        const auto n = static_cast<std::size_t>(
            seconds * trace.sampleRateHz);
        for (std::size_t i = 0; i < n; ++i)
            push(ambientSample());
    }

    /**
     * Emergency-vehicle wail: a strong sinusoid sweeping inside the
     * detector's 850-1800 Hz band.
     */
    void
    emitSiren(double seconds)
    {
        const double start = time;
        const double lo = rng.uniform(900.0, 1000.0);
        const double hi = rng.uniform(1500.0, 1700.0);
        const double wail_period = rng.uniform(1.2, 1.8);
        const auto n = static_cast<std::size_t>(
            seconds * trace.sampleRateHz);
        double phase = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double t = time - start;
            const double sweep =
                0.5 * (1.0 - std::cos(twoPi * t / wail_period));
            const double freq = lo + (hi - lo) * sweep;
            phase += twoPi * freq * dt;
            push(0.35 * std::sin(phase) + ambientSample());
        }
        addEvent(event_type::siren, start, time);
    }

    /**
     * Music: a harmonic chord progression with a beating amplitude
     * envelope — large amplitude variance, steady zero-crossing rate.
     */
    void
    emitMusic(double seconds)
    {
        const double start = time;
        const auto n = static_cast<std::size_t>(
            seconds * trace.sampleRateHz);
        double base = rng.uniform(220.0, 440.0);
        double next_change = 0.5;
        double phase1 = 0.0;
        double phase2 = 0.0;
        double phase3 = 0.0;
        const double beat_hz = rng.uniform(1.5, 2.5);
        for (std::size_t i = 0; i < n; ++i) {
            const double t = time - start;
            if (t >= next_change) {
                // Step to another chord root roughly twice a second.
                base *= std::pow(2.0, rng.uniformInt(-4, 4) / 12.0);
                base = std::clamp(base, 180.0, 520.0);
                next_change += 0.5;
            }
            phase1 += twoPi * base * dt;
            phase2 += twoPi * base * 1.5 * dt;
            phase3 += twoPi * base * 2.0 * dt;
            const double envelope =
                0.25 + 0.75 * std::pow(
                                  0.5 * (1.0 + std::sin(twoPi * beat_hz *
                                                        t)),
                                  2.0);
            const double tone = 0.30 * std::sin(phase1) +
                                0.18 * std::sin(phase2) +
                                0.12 * std::sin(phase3);
            push(envelope * tone + ambientSample());
        }
        addEvent(event_type::music, start, time);
    }

    /**
     * Speech: ~4 syllables/s alternating voiced tones and unvoiced
     * noise bursts with inter-word pauses — high variance of the
     * zero-crossing rate across sub-windows.
     *
     * When @p has_phrase is set, a ~1 s interval inside the segment
     * carries the target phrase. Standing in for the acoustics a
     * speech-to-text engine would recognize, the phrase has a
     * distinctive dual-tone signature (alternating 500 / 750 Hz every
     * 125 ms) that the main-CPU classifier can detect; see DESIGN.md.
     */
    void
    emitSpeech(double seconds, bool has_phrase)
    {
        const double start = time;
        const auto n = static_cast<std::size_t>(
            seconds * trace.sampleRateHz);

        double phrase_begin = -1.0;
        double phrase_end = -1.0;
        if (has_phrase) {
            const double phrase_len = std::min(1.0, seconds * 0.5);
            const double offset =
                rng.uniform(0.0, seconds - phrase_len);
            phrase_begin = start + offset;
            phrase_end = phrase_begin + phrase_len;
        }

        double syllable_left = 0.0;
        bool voiced = true;
        bool in_pause = false;
        double pitch = rng.uniform(140.0, 240.0);
        double phase = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double v;
            if (time >= phrase_begin && time < phrase_end) {
                // Phrase signature: 125 ms slots alternating a
                // distinctive two-tone chord (440 + 660 Hz) with
                // unvoiced noise — speech-like ZCR dynamics, but a
                // timbre ordinary syllables never produce.
                const double slot =
                    std::floor((time - phrase_begin) / 0.125);
                const double t_in = time - phrase_begin;
                if (static_cast<long>(slot) % 2 == 0) {
                    v = 0.22 * std::sin(twoPi * 440.0 * t_in) +
                        0.22 * std::sin(twoPi * 660.0 * t_in);
                } else {
                    v = rng.gaussian(0.0, 0.16);
                }
            } else {
                if (syllable_left <= 0.0) {
                    in_pause = rng.chance(0.25);
                    voiced = rng.chance(0.6);
                    syllable_left = in_pause ? rng.uniform(0.1, 0.35)
                                             : rng.uniform(0.12, 0.28);
                    pitch = rng.uniform(140.0, 240.0);
                }
                syllable_left -= dt;
                if (in_pause) {
                    v = 0.0;
                } else if (voiced) {
                    phase += twoPi * pitch * dt;
                    v = 0.22 * std::sin(phase) +
                        0.10 * std::sin(2.0 * phase);
                } else {
                    v = rng.gaussian(0.0, 0.16);
                }
            }
            push(v + ambientSample());
        }
        addEvent(event_type::speech, start, time);
        if (has_phrase)
            addEvent(event_type::phrase, phrase_begin, phrase_end);
    }
};

} // namespace

std::string
audioEnvironmentName(AudioEnvironment environment)
{
    switch (environment) {
      case AudioEnvironment::Office: return "office";
      case AudioEnvironment::CoffeeShop: return "coffeeshop";
      case AudioEnvironment::Outdoors: return "outdoors";
    }
    return "?";
}

Trace
generateAudioTrace(const AudioTraceConfig &config)
{
    if (config.durationSeconds <= 0.0 || config.sampleRateHz <= 0.0)
        throw ConfigError("audio duration and rate must be positive");
    if (config.sampleRateHz < 3600.0)
        throw ConfigError("audio rate must keep 1800 Hz sirens below "
                          "Nyquist");
    const double event_fraction = config.sirenFraction +
                                  config.musicFraction +
                                  config.speechFraction;
    if (event_fraction >= 0.9)
        throw ConfigError("audio event fractions leave no room for "
                          "ambience");

    Builder b(config);
    const double total = config.durationSeconds;

    // Build the event schedule: segments drawn until each budget is
    // met, then shuffled among ambient gaps.
    std::vector<Segment> events;
    auto fill_budget = [&](Segment::Kind kind, double budget, double lo,
                           double hi) {
        double used = 0.0;
        while (used < budget) {
            const double seconds =
                std::min(b.rng.uniform(lo, hi), budget - used + lo);
            Segment seg{kind, seconds, false};
            if (kind == Segment::Kind::Speech)
                seg.hasPhrase = b.rng.chance(config.phraseProbability);
            events.push_back(seg);
            used += seconds;
        }
    };
    fill_budget(Segment::Kind::Siren, total * config.sirenFraction, 2.0,
                6.0);
    fill_budget(Segment::Kind::Music, total * config.musicFraction, 8.0,
                20.0);
    fill_budget(Segment::Kind::Speech, total * config.speechFraction,
                3.0, 8.0);

    // Fisher-Yates shuffle of the event order.
    for (std::size_t i = events.size(); i > 1; --i)
        std::swap(events[i - 1],
                  events[b.rng.uniformInt(0, static_cast<long>(i) - 1)]);

    double event_seconds = 0.0;
    for (const auto &seg : events)
        event_seconds += seg.seconds;
    const double ambient_total = std::max(total - event_seconds, 0.0);
    const double gap_count = static_cast<double>(events.size()) + 1.0;

    // Interleave ambient gaps (randomly sized around the mean) with the
    // shuffled events.
    double ambient_left = ambient_total;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const double mean_gap = ambient_left /
                                (gap_count - static_cast<double>(i));
        const double gap = std::min(
            ambient_left, b.rng.uniform(0.3 * mean_gap, 1.7 * mean_gap));
        b.emitAmbient(gap);
        ambient_left -= gap;

        const auto &seg = events[i];
        switch (seg.kind) {
          case Segment::Kind::Ambient: break;
          case Segment::Kind::Siren: b.emitSiren(seg.seconds); break;
          case Segment::Kind::Music: b.emitMusic(seg.seconds); break;
          case Segment::Kind::Speech:
            b.emitSpeech(seg.seconds, seg.hasPhrase);
            break;
        }
    }
    if (b.time < total)
        b.emitAmbient(total - b.time);

    std::sort(b.trace.events.begin(), b.trace.events.end(),
              [](const GroundTruthEvent &x, const GroundTruthEvent &y) {
                  return x.startTime < y.startTime;
              });
    b.trace.checkInvariants();
    // A member is copied on return unless moved explicitly.
    return std::move(b.trace);
}

std::vector<Trace>
generateAudioCorpus(double duration_seconds, std::uint64_t seed)
{
    Rng master(seed);
    std::vector<Trace> corpus;
    const AudioEnvironment environments[] = {AudioEnvironment::Office,
                                             AudioEnvironment::CoffeeShop,
                                             AudioEnvironment::Outdoors};
    for (AudioEnvironment environment : environments) {
        AudioTraceConfig config;
        config.environment = environment;
        config.durationSeconds = duration_seconds;
        config.seed = master.fork().uniformInt(1, 1'000'000'000);
        config.name =
            "audio-" + audioEnvironmentName(environment);
        corpus.push_back(generateAudioTrace(config));
    }
    return corpus;
}

} // namespace sidewinder::trace
