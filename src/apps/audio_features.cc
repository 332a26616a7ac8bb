#include "apps/audio_features.h"

#include <algorithm>
#include <cmath>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/filters.h"
#include "support/error.h"

namespace sidewinder::apps {

FrameSpectrum::FrameSpectrum(std::size_t frame_size)
    : plan(dsp::FftPlan::forSize(frame_size)), spectrum(frame_size),
      mags(frame_size / 2 + 1)
{
}

void
FrameSpectrum::compute(const double *frame)
{
    plan->forwardReal(frame, spectrum.data());
    dsp::magnitudesInto(spectrum.data(), mags.size(), mags.data());
}

namespace {

/**
 * Walk every analysis window fully contained in [begin, end) of the
 * audio channel: copy it into a reused frame, take its spectrum, and
 * hand both to @p visit(features, frame, spectrum), which fills the
 * features its classifier reads.
 */
template <typename Visit>
std::vector<AudioWindowFeatures>
walkFrames(const trace::Trace &trace, std::size_t begin, std::size_t end,
           const AudioFeatureConfig &config, Visit visit)
{
    if (!dsp::isPowerOfTwo(config.windowSize))
        throw ConfigError("audio feature window must be a power of two");
    if (config.hop == 0 || config.hop > config.windowSize)
        throw ConfigError("audio feature hop must be in [1, window]");
    if (config.subWindowSize == 0 ||
        config.subWindowSize > config.windowSize)
        throw ConfigError("audio sub-window must be in [1, window]");

    const auto &samples = trace.channels[trace.channelIndex("AUDIO")];
    end = std::min(end, samples.size());

    FrameSpectrum spectrum(config.windowSize);
    std::vector<double> frame(config.windowSize);
    std::vector<AudioWindowFeatures> features;
    for (std::size_t start = begin;
         start + config.windowSize <= end; start += config.hop) {
        std::copy_n(samples.begin() + static_cast<long>(start),
                    config.windowSize, frame.begin());
        spectrum.compute(frame.data());

        AudioWindowFeatures f;
        f.time = trace.timeOf(start + config.windowSize / 2);
        visit(f, frame, spectrum);
        features.push_back(f);
    }
    return features;
}

} // namespace

std::vector<AudioWindowFeatures>
extractSirenFeatures(const trace::Trace &trace, std::size_t begin,
                     std::size_t end, const AudioFeatureConfig &config)
{
    const double rate = trace.sampleRateHz;
    const dsp::FftBlockFilter high_pass(dsp::PassBand::HighPass,
                                        config.highPassCutoffHz, rate);
    std::vector<double> filtered;
    return walkFrames(
        trace, begin, end, config,
        [&](AudioWindowFeatures &f, const std::vector<double> &,
            FrameSpectrum &spectrum) {
            const auto dom = dsp::dominantFrequency(spectrum.magnitudes());
            f.dominantFreqHz =
                dsp::binFrequencyHz(dom.bin, config.windowSize, rate);

            // High-pass the frame's own spectrum, then take the
            // spectrum of the filtered frame.
            high_pass.applySpectrumInto(spectrum.bins(), filtered);
            spectrum.compute(filtered.data());
            const auto hp_dom =
                dsp::dominantFrequency(spectrum.magnitudes());
            f.highPassDominantFreqHz =
                dsp::binFrequencyHz(hp_dom.bin, config.windowSize, rate);
            f.highPassPeakToMeanRatio = hp_dom.peakToMeanRatio();
        });
}

std::vector<AudioWindowFeatures>
extractMusicFeatures(const trace::Trace &trace, std::size_t begin,
                     std::size_t end, const AudioFeatureConfig &config)
{
    const double rate = trace.sampleRateHz;
    std::vector<double> sub_frame(config.subWindowSize);
    std::vector<double> zcrs;
    return walkFrames(
        trace, begin, end, config,
        [&](AudioWindowFeatures &f, const std::vector<double> &frame,
            FrameSpectrum &spectrum) {
            f.amplitudeVariance = dsp::variance(frame);

            // ZCR variance across sub-windows.
            zcrs.clear();
            for (std::size_t sub = 0;
                 sub + config.subWindowSize <= frame.size();
                 sub += config.subWindowSize) {
                std::copy_n(frame.begin() + static_cast<long>(sub),
                            config.subWindowSize, sub_frame.begin());
                zcrs.push_back(dsp::zeroCrossingRate(sub_frame));
            }
            f.zcrVariance = dsp::variance(zcrs);

            const auto dom = dsp::dominantFrequency(spectrum.magnitudes());
            f.dominantFreqHz =
                dsp::binFrequencyHz(dom.bin, config.windowSize, rate);
            f.peakToMeanRatio = dom.peakToMeanRatio();
        });
}

std::vector<double>
runsOfFlaggedWindows(const std::vector<AudioWindowFeatures> &features,
                     const std::vector<bool> &flags, double min_duration,
                     double max_gap)
{
    if (features.size() != flags.size())
        throw ConfigError("feature/flag count mismatch");

    std::vector<double> detections;
    double run_start = 0.0;
    double run_end = 0.0;
    bool in_run = false;

    auto close_run = [&]() {
        if (in_run && run_end - run_start >= min_duration)
            detections.push_back(0.5 * (run_start + run_end));
        in_run = false;
    };

    for (std::size_t i = 0; i < features.size(); ++i) {
        if (!flags[i])
            continue;
        const double t = features[i].time;
        if (in_run && t - run_end <= max_gap) {
            run_end = t;
        } else {
            close_run();
            in_run = true;
            run_start = t;
            run_end = t;
        }
    }
    close_run();
    return detections;
}

} // namespace sidewinder::apps
