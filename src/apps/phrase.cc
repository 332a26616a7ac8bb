/**
 * @file
 * Phrase detection (Section 3.7.2 of the paper): "Similar to Music
 * Journal, except different parameters are used in the wake-up
 * condition and Google Speech API was used for speech-to-text
 * translation."
 *
 * The wake-up condition is a *speech* detector — high amplitude
 * variance plus high ZCR variance (alternating voiced/unvoiced
 * syllables). It therefore wakes the phone for every speech segment
 * (~5% of each trace) even though the phrase itself occupies < 1%,
 * which is exactly the suboptimality the paper analyzes in
 * Section 5.2.
 *
 * In place of the Google Speech API (a network service we do not
 * have), the main-CPU classifier recognizes the phrase's synthetic
 * acoustic signature: 125 ms slots alternating a 440 + 660 Hz chord
 * with unvoiced noise (see trace/audio_gen.cc and DESIGN.md).
 */

#include "apps/apps.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "apps/audio_features.h"
#include "dsp/fft.h"
#include "dsp/window.h"
#include "core/algorithm.h"
#include "core/sensors.h"
#include "trace/types.h"

namespace sidewinder::apps {

namespace {

/** Hub analysis window: 512 ms at 4 kHz. */
constexpr int wakeWindowSize = 2048;
constexpr int zcrSubWindow = 64;
constexpr int zcrGroup = 32;
/** Speech is quieter than music: lower loudness admission. */
constexpr double minAmplitudeVariance = 0.004;
/** Speech has *high* ZCR variance (voiced/unvoiced alternation). */
constexpr double minZcrVariance = 0.008;
constexpr int wakeConsecutiveWindows = 2;

/** Phrase recognizer parameters. */
constexpr std::size_t classifierWindow = 512;
constexpr std::size_t classifierHop = 256;
constexpr double toneAHz = 440.0;
constexpr double toneBHz = 660.0;
/** Half-width of each tone's acceptance region, Hz. */
constexpr double toneToleranceHz = 16.0;
/** Both tone regions must exceed this multiple of the mean bin. */
constexpr double toneProminence = 5.0;
/** Guard bands around the tones must stay below this multiple. */
constexpr double guardProminence = 4.0;
constexpr double classifierMinDurationSeconds = 0.6;
/** [low, high] Hz of the two tone bands, then of the three guard
 * bands around them. */
constexpr double chordBandsHz[5][2] = {
    {toneAHz - toneToleranceHz, toneAHz + toneToleranceHz},
    {toneBHz - toneToleranceHz, toneBHz + toneToleranceHz},
    {300.0, toneAHz - 2.5 * toneToleranceHz},
    {toneAHz + 2.5 * toneToleranceHz, toneBHz - 2.5 * toneToleranceHz},
    {toneBHz + 2.5 * toneToleranceHz, 1000.0}};

/** Per chordBandsHz entry, the classifier window's bins inside it. */
using ChordBins = std::array<std::vector<std::size_t>, 5>;

class PhraseApp : public Application
{
  public:
    std::string name() const override { return "phrase"; }

    std::string eventType() const override
    {
        return trace::event_type::phrase;
    }

    std::vector<il::ChannelInfo> channels() const override
    {
        return core::audioChannels();
    }

    core::ProcessingPipeline
    wakeCondition() const override
    {
        using namespace core;
        ProcessingPipeline pipeline;

        ProcessingBranch loudness(channel::audio);
        loudness.add(Window(wakeWindowSize))
            .add(Variance())
            .add(MinThreshold(minAmplitudeVariance));

        ProcessingBranch syllables(channel::audio);
        syllables.add(Window(zcrSubWindow))
            .add(ZeroCrossingRate())
            .add(Window(zcrGroup))
            .add(Variance())
            .add(MinThreshold(minZcrVariance));

        pipeline.add(std::move(loudness));
        pipeline.add(std::move(syllables));
        pipeline.add(And());
        pipeline.add(Consecutive(wakeConsecutiveWindows));
        return pipeline;
    }

    std::vector<double>
    classify(const trace::Trace &trace, std::size_t begin,
             std::size_t end) const override
    {
        const auto &samples =
            trace.channels[trace.channelIndex("AUDIO")];
        end = std::min(end, samples.size());

        // Once per call: the Hamming coefficients and the bins of
        // each tone and guard band.
        std::vector<double> hamming(classifierWindow);
        for (std::size_t i = 0; i < classifierWindow; ++i)
            hamming[i] = dsp::hammingCoefficient(i, classifierWindow);
        const ChordBins bins = chordBins(trace.sampleRateHz);
        std::vector<double> frame(classifierWindow);
        FrameSpectrum spectrum(classifierWindow);

        // Scan windows for the dual-tone chord signature; group
        // consecutive hits into a phrase detection.
        std::vector<double> detections;
        double run_start = -1.0;
        double run_end = -1.0;

        auto close_run = [&]() {
            if (run_start >= 0.0 &&
                run_end - run_start >= classifierMinDurationSeconds)
                detections.push_back(0.5 * (run_start + run_end));
            run_start = -1.0;
        };

        for (std::size_t start = begin;
             start + classifierWindow <= end; start += classifierHop) {
            // Hamming windowing keeps tone energy out of the guard
            // bands.
            for (std::size_t i = 0; i < classifierWindow; ++i)
                frame[i] = samples[start + i] * hamming[i];
            spectrum.compute(frame.data());
            const double t =
                trace.timeOf(start + classifierWindow / 2);

            if (windowHasChord(spectrum.magnitudes(), bins)) {
                if (run_start < 0.0)
                    run_start = t;
                run_end = t;
            } else if (run_start >= 0.0 &&
                       t - run_end > 0.3) {
                close_run();
            }
        }
        close_run();
        return detections;
    }

    double matchTolerance() const override { return 1.5; }

    bool coalesceDetections() const override { return true; }

    /**
     * The phrase may sit at the very start of its speech segment
     * while the wake condition needs ~2-3 s of sustained speech to
     * fire, so the hub must buffer deeper history than the default.
     */
    double recommendedLookbackSeconds() const override { return 5.0; }

  private:
    /** Bins 1..N/2 of each chord band, ascending. */
    static ChordBins
    chordBins(double sample_rate_hz)
    {
        ChordBins bins;
        for (std::size_t b = 0; b < bins.size(); ++b) {
            for (std::size_t i = 1; i <= classifierWindow / 2; ++i) {
                const double f = dsp::binFrequencyHz(i, classifierWindow,
                                                     sample_rate_hz);
                if (f >= chordBandsHz[b][0] && f <= chordBandsHz[b][1])
                    bins[b].push_back(i);
            }
        }
        return bins;
    }

    /**
     * True when the window with magnitudes @p mags carries both
     * phrase tones prominently and nothing else: music chords whose
     * harmonics graze the tone regions always light up neighbouring
     * frequencies too, so quiet guard bands around the tones reject
     * them.
     */
    static bool
    windowHasChord(const std::vector<double> &mags, const ChordBins &bins)
    {
        double total = 0.0;
        for (std::size_t i = 1; i < mags.size(); ++i)
            total += mags[i];
        const double mean_mag =
            total / static_cast<double>(mags.size() - 1);
        if (mean_mag <= 0.0)
            return false;

        double peak[5] = {};
        for (std::size_t b = 0; b < bins.size(); ++b)
            for (const std::size_t i : bins[b])
                peak[b] = std::max(peak[b], mags[i]);
        const double guard = std::max({peak[2], peak[3], peak[4]});

        return peak[0] >= toneProminence * mean_mag &&
               peak[1] >= toneProminence * mean_mag &&
               guard < guardProminence * mean_mag;
    }
};

} // namespace

std::unique_ptr<Application>
makePhraseApp()
{
    return std::make_unique<PhraseApp>();
}

} // namespace sidewinder::apps
