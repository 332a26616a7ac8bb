/**
 * @file
 * Unit tests for feature extraction: vector magnitude, ZCR,
 * statistics, dominant frequency.
 */

#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "support/error.h"

namespace sidewinder::dsp {
namespace {

TEST(ZeroCrossingRate, AlternatingSignIsMaximal)
{
    EXPECT_DOUBLE_EQ(zeroCrossingRate({1.0, -1.0, 1.0, -1.0, 1.0}),
                     1.0);
}

TEST(ZeroCrossingRate, ConstantSignIsZero)
{
    EXPECT_DOUBLE_EQ(zeroCrossingRate({1.0, 2.0, 3.0}), 0.0);
    EXPECT_DOUBLE_EQ(zeroCrossingRate({-1.0, -2.0}), 0.0);
}

TEST(ZeroCrossingRate, ShortFramesAreZero)
{
    EXPECT_DOUBLE_EQ(zeroCrossingRate({}), 0.0);
    EXPECT_DOUBLE_EQ(zeroCrossingRate({5.0}), 0.0);
}

TEST(ZeroCrossingRate, SineMatchesTwiceFrequency)
{
    // A tone at frequency f crosses zero 2f times per second.
    const double fs = 1000.0;
    const double f = 50.0;
    std::vector<double> frame(1000);
    for (std::size_t i = 0; i < frame.size(); ++i)
        frame[i] = std::sin(2.0 * std::numbers::pi * f *
                            static_cast<double>(i) / fs);
    EXPECT_NEAR(zeroCrossingRate(frame), 2.0 * f / fs, 0.01);
}

TEST(Statistics, MeanVarianceStddev)
{
    const std::vector<double> frame = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0,
                                       7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(frame), 5.0);
    EXPECT_DOUBLE_EQ(variance(frame), 4.0);
    EXPECT_DOUBLE_EQ(stddev(frame), 2.0);
}

TEST(Statistics, EmptyFrameDefaults)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(variance({}), 0.0);
    EXPECT_DOUBLE_EQ(rootMeanSquare({}), 0.0);
    EXPECT_THROW(minimum({}), ConfigError);
    EXPECT_THROW(maximum({}), ConfigError);
    EXPECT_THROW(range({}), ConfigError);
}

TEST(Statistics, MinMaxRange)
{
    const std::vector<double> frame = {3.0, -1.0, 7.0, 2.0};
    EXPECT_DOUBLE_EQ(minimum(frame), -1.0);
    EXPECT_DOUBLE_EQ(maximum(frame), 7.0);
    EXPECT_DOUBLE_EQ(range(frame), 8.0);
}

TEST(Statistics, RmsOfConstant)
{
    EXPECT_DOUBLE_EQ(rootMeanSquare({-3.0, -3.0, -3.0}), 3.0);
}

TEST(Statistics, RmsOfSine)
{
    std::vector<double> frame(1000);
    for (std::size_t i = 0; i < frame.size(); ++i)
        frame[i] = 2.0 * std::sin(2.0 * std::numbers::pi * 10.0 *
                                  static_cast<double>(i) / 1000.0);
    EXPECT_NEAR(rootMeanSquare(frame), 2.0 / std::sqrt(2.0), 1e-3);
}

/** The single-frame loops the batched reducers replaced, verbatim. */
double
loopMean(const std::vector<double> &frame)
{
    if (frame.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : frame)
        sum += x;
    return sum / static_cast<double>(frame.size());
}

double
loopVariance(const std::vector<double> &frame)
{
    if (frame.size() < 2)
        return 0.0;
    const double m = loopMean(frame);
    double sum_sq = 0.0;
    for (double x : frame)
        sum_sq += (x - m) * (x - m);
    return sum_sq / static_cast<double>(frame.size());
}

double
loopRms(const std::vector<double> &frame)
{
    if (frame.empty())
        return 0.0;
    double sum_sq = 0.0;
    for (double x : frame)
        sum_sq += x * x;
    return std::sqrt(sum_sq / static_cast<double>(frame.size()));
}

TEST(Statistics, BatchedReducersMatchSingleFrameLoopsBitForBit)
{
    // Every batch width, and counts across the batch boundary: each
    // frame's result must be the single-frame loop's exact bits.
    std::mt19937_64 gen(7);
    std::normal_distribution<double> sample(0.3, 2.0);
    for (std::size_t n : {0, 1, 2, 3, 50, 256}) {
        for (std::size_t k = 1; k <= 9; ++k) {
            std::vector<std::vector<double>> frames(
                k, std::vector<double>(n));
            std::vector<const double *> data;
            for (auto &frame : frames) {
                for (double &x : frame)
                    x = sample(gen);
                data.push_back(frame.data());
            }
            std::vector<double> mean_out(k);
            std::vector<double> var_out(k);
            std::vector<double> sd_out(k);
            std::vector<double> rms_out(k);
            meanOfFrames(data.data(), k, n, mean_out.data());
            varianceOfFrames(data.data(), k, n, var_out.data());
            stddevOfFrames(data.data(), k, n, sd_out.data());
            rootMeanSquareOfFrames(data.data(), k, n, rms_out.data());
            for (std::size_t j = 0; j < k; ++j) {
                const auto &frame = frames[j];
                EXPECT_EQ(mean_out[j], loopMean(frame)) << n << " " << k;
                EXPECT_EQ(var_out[j], loopVariance(frame));
                EXPECT_EQ(sd_out[j], std::sqrt(loopVariance(frame)));
                EXPECT_EQ(rms_out[j], loopRms(frame));
                EXPECT_EQ(mean(frame), mean_out[j]);
                EXPECT_EQ(variance(frame), var_out[j]);
                EXPECT_EQ(stddev(frame), sd_out[j]);
                EXPECT_EQ(rootMeanSquare(frame), rms_out[j]);
            }
        }
    }
}

TEST(DominantFrequency, NeedsAtLeastTwoBins)
{
    EXPECT_THROW(dominantFrequency({1.0}), ConfigError);
}

TEST(DominantFrequency, IgnoresDcBin)
{
    // Bin 0 (DC) is largest but must not be selected.
    const auto dom = dominantFrequency({100.0, 1.0, 5.0, 2.0});
    EXPECT_EQ(dom.bin, 2u);
    EXPECT_DOUBLE_EQ(dom.magnitude, 5.0);
    EXPECT_NEAR(dom.meanMagnitude, 8.0 / 3.0, 1e-12);
}

TEST(DominantFrequency, PeakToMeanRatioForPitchedTone)
{
    const double fs = 4000.0;
    const std::size_t n = 256;
    std::vector<double> frame(n);
    for (std::size_t i = 0; i < n; ++i)
        frame[i] = std::sin(2.0 * std::numbers::pi * 1000.0 *
                            static_cast<double>(i) / fs);
    const auto spectrum = fftReal(frame);
    std::vector<double> mags(n / 2 + 1);
    magnitudesInto(spectrum.data(), mags.size(), mags.data());
    const auto dom = dominantFrequency(mags);
    // 1000 Hz at fs 4000, n 256 -> bin 64.
    EXPECT_EQ(dom.bin, 64u);
    EXPECT_GT(dom.peakToMeanRatio(), 20.0);
}

TEST(DominantFrequency, ZeroSpectrumHasZeroRatio)
{
    const auto dom = dominantFrequency({0.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(dom.peakToMeanRatio(), 0.0);
}

} // namespace
} // namespace sidewinder::dsp
