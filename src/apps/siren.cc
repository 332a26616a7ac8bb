/**
 * @file
 * Siren detector (Section 3.7.2 of the paper): "applies a 750 Hz
 * high-pass filter ... transformed to the frequency domain using a FFT
 * in order to extract the magnitude of the dominant frequency and the
 * mean magnitude of all frequency bins. The ratio ... is used to
 * determine if the window contains pitched sounds. Pitched sounds
 * between 850 Hz and 1800 Hz that last longer than 650 ms are
 * classified as sirens."
 *
 * The wake-up condition needs audio-rate FFTs, which is why this is
 * the one application whose hub condition requires the LM4F120
 * microcontroller (Table 2 of the paper).
 */

#include "apps/apps.h"

#include "apps/audio_features.h"
#include "core/algorithm.h"
#include "core/sensors.h"
#include "trace/types.h"

namespace sidewinder::apps {

namespace {

/** Hub analysis window: 64 ms at 4 kHz. */
constexpr int wakeWindowSize = 256;
/** High-pass cutoff from the paper, Hz. */
constexpr double highPassCutoffHz = 750.0;
/** Pitchedness (dominant / mean magnitude) admission ratio. */
constexpr double pitchRatio = 4.0;
/** Siren frequency band from the paper, Hz. */
constexpr double sirenBandLowHz = 850.0;
constexpr double sirenBandHighHz = 1800.0;
/**
 * Consecutive pitched windows required: 11 x 64 ms covers the paper's
 * "longer than 650 ms".
 */
constexpr int wakeConsecutiveWindows = 11;

/** Main classifier: same features, finer hop, tighter ratio. */
constexpr double classifierPitchRatio = 5.0;
constexpr double classifierMinDurationSeconds = 0.65;

class SirenApp : public Application
{
  public:
    std::string name() const override { return "siren"; }

    std::string eventType() const override
    {
        return trace::event_type::siren;
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

        // Two branches share the window/high-pass/FFT prefix (the hub
        // engine deduplicates the common nodes).
        ProcessingBranch pitched(channel::audio);
        pitched.add(Window(wakeWindowSize, true))
            .add(HighPassFilter(highPassCutoffHz))
            .add(Fft())
            .add(Spectrum())
            .add(PeakToMeanRatio())
            .add(MinThreshold(pitchRatio));

        ProcessingBranch in_band(channel::audio);
        in_band.add(Window(wakeWindowSize, true))
            .add(HighPassFilter(highPassCutoffHz))
            .add(Fft())
            .add(Spectrum())
            .add(DominantFrequencyHz())
            .add(BandThreshold(sirenBandLowHz, sirenBandHighHz));

        // Music whose upper harmonics pass the 750 Hz filter still
        // has its fundamental below the siren band; requiring the
        // *unfiltered* dominant frequency in band as well rejects it
        // (same discrimination the main-CPU classifier applies).
        ProcessingBranch overall(channel::audio);
        overall.add(Window(wakeWindowSize, true))
            .add(Fft())
            .add(Spectrum())
            .add(DominantFrequencyHz())
            .add(BandThreshold(sirenBandLowHz, sirenBandHighHz));

        pipeline.add(std::move(pitched));
        pipeline.add(std::move(in_band));
        pipeline.add(std::move(overall));
        pipeline.add(And());
        pipeline.add(Consecutive(wakeConsecutiveWindows));
        return pipeline;
    }

    std::vector<double>
    classify(const trace::Trace &trace, std::size_t begin,
             std::size_t end) const override
    {
        AudioFeatureConfig config;
        config.windowSize = 256;
        config.hop = 128;
        config.highPassCutoffHz = highPassCutoffHz;

        const auto features =
            extractSirenFeatures(trace, begin, end, config);
        std::vector<bool> flags(features.size());
        for (std::size_t i = 0; i < features.size(); ++i) {
            const auto &f = features[i];
            // A real siren dominates the *unfiltered* spectrum too;
            // music whose upper harmonics leak past the high-pass
            // still has its fundamental (< 850 Hz) dominating overall
            // and is rejected here.
            flags[i] =
                f.highPassPeakToMeanRatio >= classifierPitchRatio &&
                f.highPassDominantFreqHz >= sirenBandLowHz &&
                f.highPassDominantFreqHz <= sirenBandHighHz &&
                f.dominantFreqHz >= sirenBandLowHz &&
                f.dominantFreqHz <= sirenBandHighHz;
        }
        return runsOfFlaggedWindows(features, flags,
                                    classifierMinDurationSeconds, 0.2);
    }

    double matchTolerance() const override { return 1.5; }

    bool coalesceDetections() const override { return true; }
};

} // namespace

std::unique_ptr<Application>
makeSirenApp()
{
    return std::make_unique<SirenApp>();
}

} // namespace sidewinder::apps
