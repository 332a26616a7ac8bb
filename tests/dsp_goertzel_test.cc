/**
 * @file
 * Tests for the Goertzel single-bin probe: agreement with the FFT,
 * tone selectivity, normalization, and its hub kernel.
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/goertzel.h"
#include "engine_plan.h"
#include "hub/engine.h"
#include "il/parser.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::dsp {
namespace {

std::vector<double>
tone(double freq, double fs, std::size_t n, double amp = 1.0)
{
    std::vector<double> frame(n);
    for (std::size_t i = 0; i < n; ++i)
        frame[i] = amp * std::sin(2.0 * std::numbers::pi * freq *
                                  static_cast<double>(i) / fs);
    return frame;
}

TEST(Goertzel, RejectsBadArguments)
{
    EXPECT_THROW(goertzelMagnitude({}, 100.0, 1000.0), ConfigError);
    EXPECT_THROW(goertzelMagnitude({1.0}, 0.0, 1000.0), ConfigError);
    EXPECT_THROW(goertzelMagnitude({1.0}, 600.0, 1000.0),
                 ConfigError);
}

TEST(Goertzel, MatchesFftBinOnBinCenteredTone)
{
    // 1000 Hz at fs 4000, n 256 -> exactly bin 64.
    const auto frame = tone(1000.0, 4000.0, 256, 0.7);
    const double g = goertzelMagnitude(frame, 1000.0, 4000.0);
    const auto bins = fftReal(frame);
    EXPECT_NEAR(g, std::abs(bins[64]), 1e-6);
    EXPECT_NEAR(g, 0.7 * 256.0 / 2.0, 1e-6);
}

TEST(Goertzel, AgreesWithFftAcrossRandomBins)
{
    Rng rng(5);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<double> frame(128);
        for (auto &v : frame)
            v = rng.uniform(-1.0, 1.0);
        const auto bins = fftReal(frame);
        const auto bin =
            static_cast<std::size_t>(rng.uniformInt(1, 63));
        const double freq = binFrequencyHz(bin, 128, 1000.0);
        EXPECT_NEAR(goertzelMagnitude(frame, freq, 1000.0),
                    std::abs(bins[bin]), 1e-6);
    }
}

TEST(Goertzel, SelectiveAgainstOffTargetTones)
{
    const auto frame = tone(1000.0, 4000.0, 256);
    const double on = goertzelMagnitude(frame, 1000.0, 4000.0);
    // Several bins away: strongly attenuated.
    const double off = goertzelMagnitude(frame, 1250.0, 4000.0);
    EXPECT_GT(on, 20.0 * off);
}

TEST(GoertzelRelative, PureToneScoresNearOne)
{
    const auto frame = tone(1000.0, 4000.0, 256, 0.3);
    EXPECT_NEAR(goertzelRelative(frame, 1000.0, 4000.0), 1.0, 0.05);
}

TEST(GoertzelRelative, NoiseScoresNearZero)
{
    Rng rng(9);
    std::vector<double> frame(256);
    for (auto &v : frame)
        v = rng.gaussian(0.0, 0.5);
    EXPECT_LT(goertzelRelative(frame, 1000.0, 4000.0), 0.3);
}

TEST(GoertzelRelative, AmplitudeInvariant)
{
    const auto soft = tone(500.0, 4000.0, 128, 0.01);
    const auto loud = tone(500.0, 4000.0, 128, 10.0);
    EXPECT_NEAR(goertzelRelative(soft, 500.0, 4000.0),
                goertzelRelative(loud, 500.0, 4000.0), 1e-9);
}

TEST(GoertzelKernel, RunsOnTheHub)
{
    hub::Engine engine({{"AUDIO", 4000.0}});
    engine.addCondition(
        1, test::planFor(engine,
                         il::parse("AUDIO -> window(id=1, params={64});\n"
                                   "1 -> goertzelRel(id=2, params={1000});\n"
                                   "2 -> minThreshold(id=3, params={0.5});\n"
                                   "3 -> OUT;\n")));

    // Quiet noise: no wake.
    Rng rng(2);
    for (int i = 0; i < 256; ++i)
        engine.pushSamples({rng.gaussian(0.0, 0.05)}, i * 0.00025);
    EXPECT_TRUE(engine.drainWakeEvents().empty());

    // A 1 kHz tone: wakes.
    for (int i = 0; i < 256; ++i)
        engine.pushSamples(
            {0.3 * std::sin(2.0 * std::numbers::pi * 1000.0 * i /
                            4000.0)},
            0.1 + i * 0.00025);
    EXPECT_FALSE(engine.drainWakeEvents().empty());
}

TEST(GoertzelKernel, ValidatorEnforcesNyquist)
{
    hub::Engine engine({{"AUDIO", 4000.0}});
    EXPECT_THROW(
        engine.addCondition(
            1, test::planFor(engine,
                             il::parse("AUDIO -> window(id=1, params={64});\n"
                                       "1 -> goertzel(id=2, params={2500});\n"
                                       "2 -> minThreshold(id=3, params={1});\n"
                                       "3 -> OUT;\n"))),
        ParseError);
}

} // namespace
} // namespace sidewinder::dsp
