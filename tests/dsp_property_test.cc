/**
 * @file
 * Property-based tests over the DSP primitives: brute-force
 * equivalences, algebraic identities, and invariant bounds across
 * randomized inputs (parameterized by seed).
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "dsp/features.h"
#include "dsp/fft.h"
#include "dsp/filters.h"
#include "dsp/peaks.h"
#include "dsp/threshold.h"
#include "dsp/window.h"
#include "support/rng.h"

namespace sidewinder::dsp {
namespace {

class DspProperty : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng{static_cast<std::uint64_t>(GetParam())};

    std::vector<double>
    randomSamples(std::size_t n, double lo = -10.0, double hi = 10.0)
    {
        std::vector<double> out(n);
        for (auto &v : out)
            v = rng.uniform(lo, hi);
        return out;
    }
};

TEST_P(DspProperty, MovingAverageMatchesBruteForce)
{
    const auto samples = randomSamples(300);
    const std::size_t window =
        static_cast<std::size_t>(rng.uniformInt(1, 30));

    MovingAverage filter(window);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto out = filter.push(samples[i]);
        if (i + 1 < window) {
            EXPECT_FALSE(out.has_value());
            continue;
        }
        double sum = 0.0;
        for (std::size_t k = i + 1 - window; k <= i; ++k)
            sum += samples[k];
        ASSERT_TRUE(out.has_value());
        EXPECT_NEAR(*out, sum / static_cast<double>(window), 1e-9);
    }
}

TEST_P(DspProperty, EmaStaysWithinInputHull)
{
    const auto samples = randomSamples(200, -4.0, 7.0);
    ExponentialMovingAverage ema(rng.uniform(0.05, 1.0));
    for (double s : samples) {
        const double out = ema.push(s);
        EXPECT_GE(out, -4.0 - 1e-9);
        EXPECT_LE(out, 7.0 + 1e-9);
    }
}

TEST_P(DspProperty, FftFilterIsIdempotent)
{
    const auto frame = randomSamples(128);
    FftBlockFilter filter(PassBand::LowPass, rng.uniform(5.0, 50.0),
                          128.0);
    const auto once = filter.apply(frame);
    const auto twice = filter.apply(once);
    for (std::size_t i = 0; i < frame.size(); ++i)
        EXPECT_NEAR(once[i], twice[i], 1e-8);
}

TEST_P(DspProperty, FilterIsLinear)
{
    const auto a = randomSamples(64);
    const auto b = randomSamples(64);
    std::vector<double> sum(64);
    for (std::size_t i = 0; i < 64; ++i)
        sum[i] = a[i] + b[i];

    FftBlockFilter filter(PassBand::HighPass, 20.0, 128.0);
    const auto fa = filter.apply(a);
    const auto fb = filter.apply(b);
    const auto fsum = filter.apply(sum);
    for (std::size_t i = 0; i < 64; ++i)
        EXPECT_NEAR(fsum[i], fa[i] + fb[i], 1e-8);
}

TEST_P(DspProperty, ZcrIsScaleInvariantAndBounded)
{
    const auto frame = randomSamples(100);
    const double zcr = zeroCrossingRate(frame);
    EXPECT_GE(zcr, 0.0);
    EXPECT_LE(zcr, 1.0);

    std::vector<double> scaled = frame;
    const double factor = rng.uniform(0.1, 50.0);
    for (auto &v : scaled)
        v *= factor;
    EXPECT_DOUBLE_EQ(zeroCrossingRate(scaled), zcr);
}

TEST_P(DspProperty, VarianceShiftInvariantScaleQuadratic)
{
    const auto frame = randomSamples(80);
    const double var = variance(frame);

    std::vector<double> shifted = frame;
    const double shift = rng.uniform(-100.0, 100.0);
    for (auto &v : shifted)
        v += shift;
    EXPECT_NEAR(variance(shifted), var, 1e-7);

    std::vector<double> scaled = frame;
    const double factor = rng.uniform(0.5, 3.0);
    for (auto &v : scaled)
        v *= factor;
    EXPECT_NEAR(variance(scaled), var * factor * factor, 1e-6);
}

TEST_P(DspProperty, StatisticsOrdering)
{
    const auto frame = randomSamples(50);
    EXPECT_LE(minimum(frame), mean(frame));
    EXPECT_GE(maximum(frame), mean(frame));
    EXPECT_GE(rootMeanSquare(frame), std::abs(mean(frame)) - 1e-9);
    EXPECT_NEAR(stddev(frame) * stddev(frame), variance(frame), 1e-9);
}

TEST_P(DspProperty, BandAndOutsideBandPartitionTheLine)
{
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = rng.uniform(0.0, 5.0);
    const Threshold inside(ThresholdKind::Band, lo, hi);
    const Threshold outside(ThresholdKind::OutsideBand, lo, hi);
    for (int i = 0; i < 200; ++i) {
        const double v = rng.uniform(-10.0, 10.0);
        EXPECT_NE(inside.admits(v), outside.admits(v)) << v;
    }
}

TEST_P(DspProperty, PeakCountBoundedByBandwidth)
{
    // A detector with refractory R can report at most N/(R+1)+1
    // peaks over N samples.
    const auto samples = randomSamples(400);
    const std::size_t refractory =
        static_cast<std::size_t>(rng.uniformInt(0, 20));
    PeakDetector det(PeakPolarity::Maxima, -10.0, 10.0, refractory);
    std::size_t count = 0;
    for (double s : samples)
        if (det.push(s))
            ++count;
    EXPECT_LE(count, samples.size() / (refractory + 1) + 1);
}

TEST_P(DspProperty, HammingWindowIsSymmetric)
{
    const std::size_t n =
        static_cast<std::size_t>(rng.uniformInt(4, 512));
    for (std::size_t i = 0; i < n / 2; ++i)
        EXPECT_NEAR(hammingCoefficient(i, n),
                    hammingCoefficient(n - 1 - i, n), 1e-12);
}

TEST_P(DspProperty, SpectrumEnergyNeverExceedsSignalEnergy)
{
    // Parseval with the half-spectrum: the retained bins carry at
    // most the full energy.
    const auto frame = randomSamples(256);
    double time_energy = 0.0;
    for (double v : frame)
        time_energy += v * v;
    const auto spectrum = fftReal(frame);
    std::vector<double> mags(frame.size() / 2 + 1);
    magnitudesInto(spectrum.data(), mags.size(), mags.data());
    double bin_energy = 0.0;
    for (double m : mags)
        bin_energy += m * m;
    bin_energy /= static_cast<double>(frame.size());
    EXPECT_LE(bin_energy, time_energy + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DspProperty, ::testing::Range(1, 13));

} // namespace
} // namespace sidewinder::dsp
