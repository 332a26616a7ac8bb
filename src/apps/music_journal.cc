/**
 * @file
 * Music journal (Section 3.7.2 of the paper): "Audio data is
 * partitioned into windows and passed to two branches for feature
 * extraction. The first branch computes the variance of the amplitude
 * over the entire window. The second branch further partitions the
 * data into smaller windows and computes the zero crossing rate ...
 * It then calculates the variance in zero crossing rate across the
 * set of sub-windows. Finally, an admission control step uses
 * thresholds ... to determine if an event of interest has occurred."
 *
 * Music shows a high amplitude variance (beating envelope) with a
 * *low* ZCR variance (stable pitch); speech shows the opposite ZCR
 * behaviour. After a wake-up the paper hands the audio to the
 * Echoprint.me web service; energy-wise only the wake-up matters, so
 * the main-CPU classifier here performs the music/non-music decision
 * the service's front end would.
 */

#include "apps/apps.h"

#include "apps/audio_features.h"
#include "core/algorithm.h"
#include "core/sensors.h"
#include "trace/types.h"

namespace sidewinder::apps {

namespace {

/** Hub analysis window: 512 ms at 4 kHz. */
constexpr int wakeWindowSize = 2048;
/** Sub-window for the ZCR branch: 16 ms. */
constexpr int zcrSubWindow = 64;
/** Sub-windows per ZCR-variance estimate (aligns both branches). */
constexpr int zcrGroup = 32;
/** Loudness admission: minimum amplitude variance. */
constexpr double minAmplitudeVariance = 0.01;
/** Pitch-stability admission: maximum ZCR variance. */
constexpr double maxZcrVariance = 0.01;
/**
 * Register admission: maximum mean ZCR. Music fundamentals sit below
 * ~520 Hz (ZCR well under 0.5 at 4 kHz) while sirens wail at
 * 900-1800 Hz (ZCR 0.45-0.85); a mean-ZCR ceiling keeps pitched
 * high-register distractors from waking the journal.
 */
constexpr double maxMeanZcr = 0.5;
/** Consecutive qualifying windows (music plays for seconds). */
constexpr int wakeConsecutiveWindows = 3;

/** Main classifier thresholds (tighter than the wake condition). */
constexpr double classifierMinAmpVariance = 0.012;
constexpr double classifierMaxZcrVariance = 0.006;
constexpr double classifierMaxDominantHz = 800.0;
constexpr double classifierMinPitchRatio = 3.0;
constexpr double classifierMinDurationSeconds = 4.0;

class MusicJournalApp : public Application
{
  public:
    std::string name() const override { return "music"; }

    std::string eventType() const override
    {
        return trace::event_type::music;
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

        ProcessingBranch pitch_stability(channel::audio);
        pitch_stability.add(Window(zcrSubWindow))
            .add(ZeroCrossingRate())
            .add(Window(zcrGroup))
            .add(Variance())
            .add(MaxThreshold(maxZcrVariance));

        // Shares the window/zcr/window prefix with the branch above
        // (merged by il::lower() and the hub engine).
        ProcessingBranch low_register(channel::audio);
        low_register.add(Window(zcrSubWindow))
            .add(ZeroCrossingRate())
            .add(Window(zcrGroup))
            .add(Mean())
            .add(MaxThreshold(maxMeanZcr));

        pipeline.add(std::move(loudness));
        pipeline.add(std::move(pitch_stability));
        pipeline.add(std::move(low_register));
        pipeline.add(And());
        pipeline.add(Consecutive(wakeConsecutiveWindows));
        return pipeline;
    }

    std::vector<double>
    classify(const trace::Trace &trace, std::size_t begin,
             std::size_t end) const override
    {
        AudioFeatureConfig config;
        config.windowSize = 2048;
        config.hop = 1024;
        config.subWindowSize = zcrSubWindow;

        const auto features =
            extractMusicFeatures(trace, begin, end, config);
        std::vector<bool> flags(features.size());
        for (std::size_t i = 0; i < features.size(); ++i) {
            const auto &f = features[i];
            flags[i] =
                f.amplitudeVariance >= classifierMinAmpVariance &&
                f.zcrVariance <= classifierMaxZcrVariance &&
                f.dominantFreqHz <= classifierMaxDominantHz &&
                f.peakToMeanRatio >= classifierMinPitchRatio;
        }
        return runsOfFlaggedWindows(features, flags,
                                    classifierMinDurationSeconds, 1.2);
    }

    double matchTolerance() const override { return 3.0; }

    bool coalesceDetections() const override { return true; }
};

} // namespace

std::unique_ptr<Application>
makeMusicJournalApp()
{
    return std::make_unique<MusicJournalApp>();
}

} // namespace sidewinder::apps
