/**
 * @file
 * Unit tests for windowing: coefficients, partitioning, overlap.
 */

#include <gtest/gtest.h>

#include "dsp/window.h"
#include "support/error.h"

namespace sidewinder::dsp {
namespace {

TEST(HammingCoefficient, EndpointsAndCenter)
{
    EXPECT_NEAR(hammingCoefficient(0, 11), 0.08, 1e-12);
    EXPECT_NEAR(hammingCoefficient(10, 11), 0.08, 1e-12);
    EXPECT_NEAR(hammingCoefficient(5, 11), 1.0, 1e-12);
}

TEST(HammingCoefficient, DegenerateWindowIsUnity)
{
    EXPECT_DOUBLE_EQ(hammingCoefficient(0, 1), 1.0);
}

TEST(ApplyWindow, RectangularIsIdentity)
{
    WindowPartitioner part(3, WindowType::Rectangular);
    std::vector<double> frame;
    part.pushInto(1.0, frame);
    part.pushInto(2.0, frame);
    ASSERT_TRUE(part.pushInto(3.0, frame));
    EXPECT_EQ(frame, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ApplyWindow, HammingScalesEdgesDown)
{
    WindowPartitioner part(8, WindowType::Hamming);
    std::vector<double> frame;
    for (int i = 0; i < 7; ++i)
        part.pushInto(1.0, frame);
    ASSERT_TRUE(part.pushInto(1.0, frame));
    EXPECT_NEAR(frame[0], 0.08, 1e-12);
    EXPECT_LT(frame[0], frame[4]);
}

TEST(WindowPartitioner, RejectsBadConfig)
{
    EXPECT_THROW(WindowPartitioner(0), ConfigError);
    EXPECT_THROW(WindowPartitioner(4, WindowType::Rectangular, 5),
                 ConfigError);
}

TEST(WindowPartitioner, EmitsAfterSizeSamples)
{
    WindowPartitioner part(3);
    std::vector<double> frame;
    EXPECT_FALSE(part.pushInto(1.0, frame));
    EXPECT_FALSE(part.pushInto(2.0, frame));
    ASSERT_TRUE(part.pushInto(3.0, frame));
    EXPECT_EQ(frame, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(WindowPartitioner, NonOverlappingByDefault)
{
    WindowPartitioner part(2);
    std::vector<double> frame;
    part.pushInto(1.0, frame);
    ASSERT_TRUE(part.pushInto(2.0, frame));
    EXPECT_FALSE(part.pushInto(3.0, frame));
    ASSERT_TRUE(part.pushInto(4.0, frame));
    EXPECT_EQ(frame, (std::vector<double>{3.0, 4.0}));
}

TEST(WindowPartitioner, OverlapKeepsTail)
{
    WindowPartitioner part(4, WindowType::Rectangular, 2);
    std::vector<double> frame;
    part.pushInto(1.0, frame);
    part.pushInto(2.0, frame);
    part.pushInto(3.0, frame);
    ASSERT_TRUE(part.pushInto(4.0, frame));
    part.pushInto(5.0, frame);
    ASSERT_TRUE(part.pushInto(6.0, frame));
    EXPECT_EQ(frame, (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
}

TEST(WindowPartitioner, ResetDropsPartialFrame)
{
    WindowPartitioner part(3);
    std::vector<double> frame;
    part.pushInto(1.0, frame);
    part.pushInto(2.0, frame);
    part.reset();
    EXPECT_FALSE(part.pushInto(3.0, frame));
    EXPECT_FALSE(part.pushInto(4.0, frame));
    EXPECT_TRUE(part.pushInto(5.0, frame));
}

TEST(WindowPartitioner, HammingAppliedPerFrame)
{
    WindowPartitioner part(4, WindowType::Hamming);
    std::vector<double> frame;
    part.pushInto(1.0, frame);
    part.pushInto(1.0, frame);
    part.pushInto(1.0, frame);
    ASSERT_TRUE(part.pushInto(1.0, frame));
    EXPECT_NEAR(frame[0], 0.08, 1e-12);
    EXPECT_GT(frame[1], frame[0]);
}

/** Property: with hop h, frames start every h samples. */
class PartitionerHop : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(PartitionerHop, FrameCadenceMatchesHop)
{
    const std::size_t hop = GetParam();
    const std::size_t size = 8;
    WindowPartitioner part(size, WindowType::Rectangular, hop);

    std::size_t frames = 0;
    const std::size_t total = 100;
    std::vector<double> frame;
    for (std::size_t i = 0; i < total; ++i)
        if (part.pushInto(static_cast<double>(i), frame))
            ++frames;

    // First frame after `size` samples, then one per `hop`.
    const std::size_t expected = 1 + (total - size) / hop;
    EXPECT_EQ(frames, expected);
}

INSTANTIATE_TEST_SUITE_P(Hops, PartitionerHop,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
} // namespace sidewinder::dsp
