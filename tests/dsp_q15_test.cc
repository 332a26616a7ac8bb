/**
 * @file
 * Tests for the Q15 fixed-point primitives: saturation at the ±1
 * boundaries, round-to-nearest conversion, round-trip tolerance, and
 * agreement of the Q15 kernels (averages, Goertzel, FFT) with
 * their double-precision references.
 */

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/fft_plan.h"
#include "dsp/filters.h"
#include "dsp/goertzel.h"
#include "dsp/q15.h"
#include "dsp/threshold.h"
#include "support/error.h"
#include "support/rng.h"

namespace sidewinder::dsp {
namespace {

TEST(Q15Convert, SaturatesAtPlusMinusOne)
{
    EXPECT_EQ(toQ15(1.0), kQ15Max);
    EXPECT_EQ(toQ15(-1.0), kQ15Min);
    EXPECT_EQ(toQ15(2.5), kQ15Max);
    EXPECT_EQ(toQ15(-3.0), kQ15Min);
    EXPECT_EQ(toQ15(1e12), kQ15Max);
    EXPECT_EQ(toQ15(-1e12), kQ15Min);
    // The largest representable value is 1 - 2^-15, not 1.
    EXPECT_EQ(toQ15(1.0 - 1.0 / 32768.0), kQ15Max);
}

TEST(Q15Convert, RoundsToNearest)
{
    // Half a count above zero rounds away from zero (round-to-nearest
    // with ties away, matching llround).
    EXPECT_EQ(toQ15(0.5 / 32768.0), 1);
    EXPECT_EQ(toQ15(0.49 / 32768.0), 0);
    EXPECT_EQ(toQ15(1.49 / 32768.0), 1);
    EXPECT_EQ(toQ15(1.51 / 32768.0), 2);
    EXPECT_EQ(toQ15(-0.49 / 32768.0), 0);
    EXPECT_EQ(toQ15(-1.51 / 32768.0), -2);
}

TEST(Q15Convert, RoundTripExactOnGridAndBoundedOffGrid)
{
    // Exact for every value already on the Q15 grid.
    for (std::int32_t q = kQ15Min; q <= kQ15Max; q += 17)
        EXPECT_EQ(toQ15(fromQ15(static_cast<Q15>(q))), q);
    EXPECT_EQ(toQ15(fromQ15(kQ15Min)), kQ15Min);
    EXPECT_EQ(toQ15(fromQ15(kQ15Max)), kQ15Max);

    // Off-grid values in [-1, 1) round-trip within 2^-16.
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(-1.0, 1.0 - 1.0 / 32768.0);
        EXPECT_LE(std::abs(fromQ15(toQ15(x)) - x), 1.0 / 65536.0)
            << "x=" << x;
    }
}

TEST(Q15Arithmetic, AddAndSubSaturate)
{
    EXPECT_EQ(q15Add(kQ15Max, 1), kQ15Max);
    EXPECT_EQ(q15Add(kQ15Max, kQ15Max), kQ15Max);
    EXPECT_EQ(q15Add(kQ15Min, -1), kQ15Min);
    EXPECT_EQ(q15Add(kQ15Min, kQ15Min), kQ15Min);
    EXPECT_EQ(q15Add(20000, 20000), kQ15Max);
    EXPECT_EQ(q15Add(100, -30), 70);
    EXPECT_EQ(q15Sub(kQ15Min, 1), kQ15Min);
    EXPECT_EQ(q15Sub(kQ15Max, -1), kQ15Max);
    EXPECT_EQ(q15Sub(kQ15Min, kQ15Max), kQ15Min);
    EXPECT_EQ(q15Sub(-25000, 20000), kQ15Min);
    EXPECT_EQ(q15Sub(100, 30), 70);
}

TEST(Q15Arithmetic, MulRoundsAndSaturatesOnlyAtMinTimesMin)
{
    // -1 * -1 = +1 is the one unrepresentable product.
    EXPECT_EQ(q15Mul(kQ15Min, kQ15Min), kQ15Max);
    // -1 * x == -x for every other operand (exact, no rounding).
    EXPECT_EQ(q15Mul(kQ15Min, kQ15Max), -kQ15Max);
    EXPECT_EQ(q15Mul(kQ15Min, 16384), kQ15Min / 2);
    // Rounding: 0.5 * (1/32768) = half a count, rounds up to 1 count.
    EXPECT_EQ(q15Mul(16384, 1), 1);
    EXPECT_EQ(q15Mul(16384, 3), 2); // 1.5 counts -> 2
    // Agreement with the real product within half a count.
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Q15 a =
            static_cast<Q15>(rng.uniformInt(kQ15Min, kQ15Max));
        const Q15 b =
            static_cast<Q15>(rng.uniformInt(kQ15Min, kQ15Max));
        if (a == kQ15Min && b == kQ15Min)
            continue;
        EXPECT_NEAR(fromQ15(q15Mul(a, b)), fromQ15(a) * fromQ15(b),
                    0.5 / 32768.0 + 1e-12);
    }
}

TEST(Q15Convert, QuantizeDequantizeArrays)
{
    const std::vector<double> in = {0.0, 0.5, -0.25, 1.0, -1.0, 0.999};
    std::vector<Q15> q(in.size());
    quantizeQ15(in.data(), q.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(q[i], toQ15(in[i]));
        const double clamped =
            std::min(std::max(in[i], -1.0), 1.0 - 1.0 / 32768.0);
        EXPECT_NEAR(fromQ15(q[i]), clamped, 1.0 / 65536.0);
    }
}

TEST(Q15MovingAverageTest, MatchesDoubleReferenceWithinOneCount)
{
    Q15MovingAverage fixed(8);
    MovingAverage reference(8);
    Rng rng(11);
    int emitted = 0;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(-1.0, 1.0 - 1.0 / 32768.0);
        const Q15 q = toQ15(x);
        const auto got = fixed.push(q);
        // Drive the reference with the quantized value so the only
        // divergence is the rounded divide.
        const auto want = reference.push(fromQ15(q));
        ASSERT_EQ(got.has_value(), want.has_value()) << "i=" << i;
        if (got) {
            ++emitted;
            EXPECT_NEAR(fromQ15(*got), *want, 1.0 / 32768.0);
        }
    }
    EXPECT_EQ(emitted, 500 - 7); // fills after windowSize samples
    EXPECT_EQ(fixed.windowSize(), 8u);
}

TEST(Q15ExponentialMovingAverageTest, SeedsAndTracksReference)
{
    Q15ExponentialMovingAverage fixed(0.25);
    ExponentialMovingAverage reference(0.25);
    // Seeds on the first sample exactly.
    EXPECT_EQ(fixed.push(toQ15(0.5)), toQ15(0.5));
    reference.push(fromQ15(toQ15(0.5)));
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        const Q15 q = toQ15(rng.uniform(-0.9, 0.9));
        const double got = fromQ15(fixed.push(q));
        const double want = reference.push(fromQ15(q));
        // alpha itself is quantized to Q15, so allow a small drift on
        // top of per-step rounding.
        EXPECT_NEAR(got, want, 4.0 / 32768.0) << "i=" << i;
    }
}

TEST(Q15ThresholdTest, MatchesDoubleThresholdPredicates)
{
    const struct
    {
        ThresholdKind kind;
        double low, high;
    } cases[] = {
        {ThresholdKind::Min, 0.25, 0.25},
        {ThresholdKind::Max, -0.125, -0.125},
        {ThresholdKind::Band, -0.5, 0.5},
        {ThresholdKind::OutsideBand, -0.0625, 0.0625},
    };
    Rng rng(19);
    for (const auto &c : cases) {
        const bool banded = c.kind == ThresholdKind::Band ||
                            c.kind == ThresholdKind::OutsideBand;
        Q15Threshold fixed(c.kind, c.low, c.high);
        Threshold reference = banded
                                  ? Threshold(c.kind, c.low, c.high)
                                  : Threshold(c.kind, c.low);
        for (int i = 0; i < 1000; ++i) {
            // Probe on the Q15 grid so quantizing the limits (which
            // are themselves on the grid here) changes nothing.
            const Q15 q =
                static_cast<Q15>(rng.uniformInt(kQ15Min, kQ15Max));
            EXPECT_EQ(fixed.admits(q), reference.admits(fromQ15(q)))
                << "kind=" << static_cast<int>(c.kind)
                << " q=" << static_cast<int>(q);
            EXPECT_EQ(fixed.push(q).has_value(), fixed.admits(q));
        }
    }
}

TEST(Q15GoertzelTest, AgreesWithDoubleGoertzelOnTone)
{
    // 1000 Hz tone at fs 4000, n 256 -> exactly bin 64.
    const std::size_t n = 256;
    std::vector<double> frame(n);
    for (std::size_t i = 0; i < n; ++i)
        frame[i] = 0.6 * std::sin(2.0 * std::numbers::pi * 1000.0 *
                                  static_cast<double>(i) / 4000.0);
    std::vector<Q15> q(n);
    quantizeQ15(frame.data(), q.data(), n);
    std::vector<double> dq(n);
    std::transform(q.begin(), q.end(), dq.begin(), fromQ15);

    const double want = goertzelMagnitude(dq, 1000.0, 4000.0);
    const double got = q15GoertzelMagnitude(q.data(), n, 1000.0, 4000.0);
    // Magnitude scales with N/2; tolerate ~1% from Q14 coefficient
    // rounding in the recurrence.
    EXPECT_NEAR(got, want, 0.01 * want);

    const double rel = q15GoertzelRelative(q.data(), n, 1000.0, 4000.0);
    const double rel_want = goertzelRelative(dq, 1000.0, 4000.0);
    EXPECT_NEAR(rel, rel_want, 0.05);
    // A strong on-bin tone dominates the frame energy.
    EXPECT_GT(rel, 0.5);
}

TEST(Q15FftPlanTest, RejectsNonPowerOfTwo)
{
    EXPECT_THROW(Q15FftPlan(0), ConfigError);
    EXPECT_THROW(Q15FftPlan(12), ConfigError);
    EXPECT_NO_THROW(Q15FftPlan(64));
}

TEST(Q15FftPlanTest, ForwardMatchesScaledDoubleFft)
{
    const std::size_t n = 128;
    Rng rng(23);
    std::vector<double> x(n);
    for (auto &v : x)
        v = rng.uniform(-0.9, 0.9);
    std::vector<Q15> re(n), im(n, 0);
    quantizeQ15(x.data(), re.data(), n);
    std::vector<double> dq(n);
    std::transform(re.begin(), re.end(), dq.begin(), fromQ15);

    const Q15FftPlan plan(n);
    plan.forward(re.data(), im.data());

    std::vector<Complex> want;
    FftPlan::forSize(n)->forwardReal(dq, want);
    // forward() scales by 1/N; per-stage rounding injects up to ~1
    // count per stage (log2(128) = 7 stages).
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(fromQ15(re[k]),
                    want[k].real() / static_cast<double>(n),
                    8.0 / 32768.0)
            << "bin " << k;
        EXPECT_NEAR(fromQ15(im[k]),
                    want[k].imag() / static_cast<double>(n),
                    8.0 / 32768.0)
            << "bin " << k;
    }
}

TEST(Q15FftPlanTest, InverseRoundTripsForward)
{
    const std::size_t n = 64;
    Rng rng(29);
    std::vector<Q15> re(n), im(n, 0), orig(n);
    for (std::size_t i = 0; i < n; ++i) {
        re[i] = toQ15(rng.uniform(-0.9, 0.9));
        orig[i] = re[i];
    }
    const Q15FftPlan plan(n);
    plan.forward(re.data(), im.data());
    plan.inverse(re.data(), im.data());
    // inverse(forward(x)) ~= x: forward's 1/N scaling cancels the
    // unscaled inverse's N gain. The inverse amplifies forward's
    // per-stage rounding noise back up by N, so the round-trip error
    // is on the order of tens of counts, not one.
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(fromQ15(re[i]), fromQ15(orig[i]), 96.0 / 32768.0)
            << "i=" << i;
        EXPECT_NEAR(fromQ15(im[i]), 0.0, 96.0 / 32768.0) << "i=" << i;
    }
}

TEST(Q15FftPlanTest, ForSizeCachesPerSize)
{
    const auto a = Q15FftPlan::forSize(256);
    const auto b = Q15FftPlan::forSize(256);
    const auto c = Q15FftPlan::forSize(128);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(a->size(), 256u);
}

TEST(Q15RamModel, SampleIsTwoBytes)
{
    // The analyzer charges 2 bytes per retained sample
    // (il::nodeRamBytes); the Q15 type is that sample format.
    static_assert(sizeof(Q15) == 2);
    EXPECT_EQ(sizeof(Q15), 2u);
}

} // namespace
} // namespace sidewinder::dsp
