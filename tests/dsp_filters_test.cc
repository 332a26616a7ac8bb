/**
 * @file
 * Unit tests for the filter algorithms: moving average, exponential
 * moving average, and FFT block filters.
 */

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "dsp/filters.h"
#include "support/error.h"

namespace sidewinder::dsp {
namespace {

TEST(MovingAverage, RejectsZeroWindow)
{
    EXPECT_THROW(MovingAverage(0), ConfigError);
}

TEST(MovingAverage, NoResultUntilWindowFull)
{
    // Section 3.5 of the paper: a moving average with window N emits
    // nothing for the first N-1 samples.
    MovingAverage ma(3);
    EXPECT_FALSE(ma.push(3.0).has_value());
    EXPECT_FALSE(ma.push(6.0).has_value());
    const auto v = ma.push(9.0);
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(*v, 6.0);
}

TEST(MovingAverage, SlidesCorrectly)
{
    MovingAverage ma(2);
    ma.push(1.0);
    EXPECT_DOUBLE_EQ(*ma.push(3.0), 2.0);
    EXPECT_DOUBLE_EQ(*ma.push(5.0), 4.0);
    EXPECT_DOUBLE_EQ(*ma.push(7.0), 6.0);
}

TEST(MovingAverage, ResetClearsHistory)
{
    MovingAverage ma(2);
    ma.push(1.0);
    ma.push(2.0);
    ma.reset();
    EXPECT_FALSE(ma.push(10.0).has_value());
    EXPECT_DOUBLE_EQ(*ma.push(20.0), 15.0);
}

TEST(MovingAverage, ConstantInputYieldsConstantOutput)
{
    MovingAverage ma(10);
    std::optional<double> last;
    for (int i = 0; i < 50; ++i)
        last = ma.push(4.2);
    ASSERT_TRUE(last.has_value());
    EXPECT_NEAR(*last, 4.2, 1e-12);
}

TEST(ExponentialMovingAverage, RejectsBadAlpha)
{
    EXPECT_THROW(ExponentialMovingAverage(0.0), ConfigError);
    EXPECT_THROW(ExponentialMovingAverage(1.5), ConfigError);
    EXPECT_NO_THROW(ExponentialMovingAverage(1.0));
}

TEST(ExponentialMovingAverage, SeedsWithFirstSample)
{
    ExponentialMovingAverage ema(0.5);
    EXPECT_DOUBLE_EQ(ema.push(10.0), 10.0);
    EXPECT_DOUBLE_EQ(ema.push(20.0), 15.0);
}

TEST(ExponentialMovingAverage, ConvergesToConstant)
{
    ExponentialMovingAverage ema(0.3);
    double v = 0.0;
    for (int i = 0; i < 100; ++i)
        v = ema.push(7.0);
    EXPECT_NEAR(v, 7.0, 1e-9);
}

TEST(FftBlockFilter, RejectsBadConfig)
{
    EXPECT_THROW(FftBlockFilter(PassBand::LowPass, 0.0, 100.0),
                 ConfigError);
    EXPECT_THROW(FftBlockFilter(PassBand::LowPass, 60.0, 100.0),
                 ConfigError); // above Nyquist
    EXPECT_THROW(FftBlockFilter(PassBand::LowPass, 10.0, -1.0),
                 ConfigError);
}

TEST(FftBlockFilter, RejectsNonPowerOfTwoFrame)
{
    FftBlockFilter filter(PassBand::LowPass, 10.0, 100.0);
    EXPECT_THROW(filter.apply(std::vector<double>(100, 1.0)),
                 ConfigError);
}

/** Build a two-tone test frame at 5 Hz and 40 Hz (fs = 128 Hz). */
std::vector<double>
twoToneFrame(std::size_t n = 128)
{
    std::vector<double> frame(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / 128.0;
        frame[i] = std::sin(2.0 * std::numbers::pi * 5.0 * t) +
                   std::sin(2.0 * std::numbers::pi * 40.0 * t);
    }
    return frame;
}

/** RMS of the correlation with a tone at @p freq. */
double
toneEnergy(const std::vector<double> &frame, double freq)
{
    double re = 0.0;
    double im = 0.0;
    for (std::size_t i = 0; i < frame.size(); ++i) {
        const double t = static_cast<double>(i) / 128.0;
        re += frame[i] * std::cos(2.0 * std::numbers::pi * freq * t);
        im += frame[i] * std::sin(2.0 * std::numbers::pi * freq * t);
    }
    return std::sqrt(re * re + im * im) /
           static_cast<double>(frame.size());
}

TEST(FftBlockFilter, LowPassRemovesHighTone)
{
    FftBlockFilter filter(PassBand::LowPass, 20.0, 128.0);
    const auto out = filter.apply(twoToneFrame());
    EXPECT_GT(toneEnergy(out, 5.0), 0.4);
    EXPECT_LT(toneEnergy(out, 40.0), 1e-6);
}

TEST(FftBlockFilter, HighPassRemovesLowTone)
{
    FftBlockFilter filter(PassBand::HighPass, 20.0, 128.0);
    const auto out = filter.apply(twoToneFrame());
    EXPECT_LT(toneEnergy(out, 5.0), 1e-6);
    EXPECT_GT(toneEnergy(out, 40.0), 0.4);
}

TEST(FftBlockFilter, OutputStaysReal)
{
    FftBlockFilter filter(PassBand::HighPass, 20.0, 128.0);
    const auto out = filter.apply(twoToneFrame());
    // The filtered frame is real; verify energy conservation of the
    // kept tone instead (real output carries the full tone).
    EXPECT_NEAR(toneEnergy(out, 40.0), 0.5, 0.05);
}

TEST(FftBlockFilter, ComplementaryFiltersSumToInput)
{
    const auto frame = twoToneFrame();
    FftBlockFilter low(PassBand::LowPass, 20.0, 128.0);
    FftBlockFilter high(PassBand::HighPass, 20.0, 128.0);
    const auto lp = low.apply(frame);
    const auto hp = high.apply(frame);
    // Low + high covers every bin except none (cutoff bin is kept by
    // both, but 20 Hz falls between bins for n=128 at fs=128: bin
    // width 1 Hz, bin 20 exactly -> kept twice). Tolerate that bin.
    for (std::size_t i = 0; i < frame.size(); ++i)
        EXPECT_NEAR(lp[i] + hp[i], frame[i], 0.1);
}

} // namespace
} // namespace sidewinder::dsp
