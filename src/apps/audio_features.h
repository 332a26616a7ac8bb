/**
 * @file
 * Windowed audio feature extraction shared by the audio applications'
 * main-CPU classifiers (Section 3.7.2 of the paper): amplitude
 * variance, zero-crossing-rate variance across sub-windows, and
 * dominant-frequency statistics.
 *
 * Each analysis frame gets one planned real FFT into buffers reused
 * across frames, and each classifier computes only the features it
 * reads from that frame and its spectrum.
 */

#ifndef SIDEWINDER_APPS_AUDIO_FEATURES_H
#define SIDEWINDER_APPS_AUDIO_FEATURES_H

#include <cstddef>
#include <memory>
#include <vector>

#include "dsp/fft_plan.h"
#include "trace/types.h"

namespace sidewinder::apps {

/**
 * Features of one analysis window of audio. Each extractor fills the
 * fields its classifier reads and leaves the rest zero.
 */
struct AudioWindowFeatures
{
    /** Window midpoint, seconds from trace start. */
    double time = 0.0;
    /** Variance of the amplitude over the whole window (music). */
    double amplitudeVariance = 0.0;
    /** Variance of the ZCR across the window's sub-windows (music). */
    double zcrVariance = 0.0;
    /** Frequency of the strongest non-DC spectral bin, Hz (both). */
    double dominantFreqHz = 0.0;
    /** Dominant-bin magnitude over mean bin magnitude (music). */
    double peakToMeanRatio = 0.0;
    /** Same, computed after the high-pass (siren). */
    double highPassPeakToMeanRatio = 0.0;
    /** Dominant frequency after the high-pass, Hz (siren). */
    double highPassDominantFreqHz = 0.0;
};

/** Parameters of the feature extraction. */
struct AudioFeatureConfig
{
    /** Analysis window length in samples (power of two). */
    std::size_t windowSize = 2048;
    /** Advance between windows in samples. */
    std::size_t hop = 1024;
    /** Sub-window length for the ZCR-variance feature. */
    std::size_t subWindowSize = 64;
    /** High-pass cutoff used for the siren features, Hz. */
    double highPassCutoffHz = 750.0;
};

/**
 * The spectrum of one analysis frame: one planned real FFT into
 * buffers reused across frames, and the magnitudes of bins 0..N/2.
 */
class FrameSpectrum
{
  public:
    /** @throws ConfigError unless @p frame_size is a power of two. */
    explicit FrameSpectrum(std::size_t frame_size);

    /** Transform the frame_size samples at @p frame. */
    void compute(const double *frame);

    /** All N bins of the last transform; callers may modify them. */
    std::vector<dsp::Complex> &bins() { return spectrum; }

    /** |bin| of bins 0..N/2 of the last transform. */
    const std::vector<double> &magnitudes() const { return mags; }

  private:
    std::shared_ptr<const dsp::FftPlan> plan;
    std::vector<dsp::Complex> spectrum;
    std::vector<double> mags;
};

/**
 * Siren features of every analysis window fully contained in
 * [@p begin, @p end) of the audio channel of @p trace:
 * dominantFreqHz, and highPassDominantFreqHz and
 * highPassPeakToMeanRatio after the config's high-pass. Three planned
 * real transforms per window: the frame, the inverse of its filtered
 * spectrum, and the filtered frame.
 */
std::vector<AudioWindowFeatures>
extractSirenFeatures(const trace::Trace &trace, std::size_t begin,
                     std::size_t end, const AudioFeatureConfig &config);

/**
 * Music features of every analysis window fully contained in
 * [@p begin, @p end): amplitudeVariance, zcrVariance, dominantFreqHz
 * and peakToMeanRatio. One planned real transform per window.
 */
std::vector<AudioWindowFeatures>
extractMusicFeatures(const trace::Trace &trace, std::size_t begin,
                     std::size_t end, const AudioFeatureConfig &config);

/**
 * Group consecutive flagged windows into runs and return the midpoint
 * time of each run at least @p min_duration long. Windows are
 * consecutive when their times differ by at most @p max_gap seconds.
 */
std::vector<double>
runsOfFlaggedWindows(const std::vector<AudioWindowFeatures> &features,
                     const std::vector<bool> &flags, double min_duration,
                     double max_gap);

} // namespace sidewinder::apps

#endif // SIDEWINDER_APPS_AUDIO_FEATURES_H
