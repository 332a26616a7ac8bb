/**
 * @file
 * Unit and property tests for the FFT module.
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::dsp {
namespace {

TEST(Fft, PowerOfTwoPredicate)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(1000));
}

TEST(Fft, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(fftReal(std::vector<double>(12, 1.0)), ConfigError);
}

TEST(Fft, DcSignalConcentratesInBinZero)
{
    std::vector<double> samples(16, 3.0);
    const auto spectrum = fftReal(samples);
    EXPECT_NEAR(spectrum[0].real(), 48.0, 1e-9);
    for (std::size_t i = 1; i < spectrum.size(); ++i)
        EXPECT_NEAR(std::abs(spectrum[i]), 0.0, 1e-9);
}

TEST(Fft, PureToneLandsInExpectedBin)
{
    const std::size_t n = 64;
    const double sample_rate = 64.0;
    const double freq = 8.0; // bin 8 exactly
    std::vector<double> samples(n);
    for (std::size_t i = 0; i < n; ++i)
        samples[i] = std::sin(2.0 * std::numbers::pi * freq *
                              static_cast<double>(i) / sample_rate);
    const auto spectrum = fftReal(samples);
    std::vector<double> mags(n / 2 + 1);
    magnitudesInto(spectrum.data(), mags.size(), mags.data());
    std::size_t best = 0;
    for (std::size_t i = 1; i < mags.size(); ++i)
        if (mags[i] > mags[best])
            best = i;
    EXPECT_EQ(best, 8u);
    EXPECT_NEAR(mags[8], n / 2.0, 1e-6);
}

TEST(Fft, BinFrequencyMapping)
{
    EXPECT_DOUBLE_EQ(binFrequencyHz(0, 256, 4000.0), 0.0);
    EXPECT_DOUBLE_EQ(binFrequencyHz(128, 256, 4000.0), 2000.0);
    EXPECT_DOUBLE_EQ(binFrequencyHz(16, 256, 4000.0), 250.0);
    EXPECT_THROW(binFrequencyHz(1, 0, 4000.0), ConfigError);
}

TEST(Fft, LinearityProperty)
{
    Rng rng(3);
    std::vector<double> a(32), b(32), sum(32);
    for (std::size_t i = 0; i < 32; ++i) {
        a[i] = rng.uniform(-1.0, 1.0);
        b[i] = rng.uniform(-1.0, 1.0);
        sum[i] = 2.0 * a[i] + 3.0 * b[i];
    }
    const auto fa = fftReal(a);
    const auto fb = fftReal(b);
    const auto fsum = fftReal(sum);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_NEAR(std::abs(fsum[i] - (2.0 * fa[i] + 3.0 * fb[i])),
                    0.0, 1e-9);
}

TEST(Fft, ParsevalProperty)
{
    Rng rng(5);
    std::vector<double> samples(128);
    double time_energy = 0.0;
    for (auto &s : samples) {
        s = rng.uniform(-1.0, 1.0);
        time_energy += s * s;
    }
    const auto spectrum = fftReal(samples);
    double freq_energy = 0.0;
    for (const auto &bin : spectrum)
        freq_energy += std::norm(bin);
    freq_energy /= static_cast<double>(samples.size());
    EXPECT_NEAR(time_energy, freq_energy, 1e-8);
}

/** Round-trip property across sizes. */
class FftRoundTrip : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FftRoundTrip, IfftInvertsFft)
{
    const std::size_t n = GetParam();
    Rng rng(n);
    std::vector<double> samples(n);
    for (auto &s : samples)
        s = rng.uniform(-10.0, 10.0);

    auto spectrum = fftReal(samples);
    std::vector<double> restored(n);
    FftPlan::forSize(n)->inverseReal(spectrum.data(), restored.data());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(restored[i], samples[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256,
                                           1024, 4096));

} // namespace
} // namespace sidewinder::dsp
