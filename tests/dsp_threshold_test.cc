/**
 * @file
 * Unit tests for admission-control thresholds.
 */

#include <gtest/gtest.h>

#include "dsp/threshold.h"
#include "support/error.h"

namespace sidewinder::dsp {
namespace {

TEST(Threshold, MinAdmitsAtOrAbove)
{
    Threshold t(ThresholdKind::Min, 15.0);
    EXPECT_FALSE(t.admits(14.9));
    EXPECT_TRUE(t.admits(15.0));
    EXPECT_TRUE(t.admits(20.0));
}

TEST(Threshold, MaxAdmitsAtOrBelow)
{
    Threshold t(ThresholdKind::Max, 3.0);
    EXPECT_TRUE(t.admits(3.0));
    EXPECT_TRUE(t.admits(-100.0));
    EXPECT_FALSE(t.admits(3.1));
}

TEST(Threshold, BandAdmitsInside)
{
    Threshold t(ThresholdKind::Band, 2.0, 4.0);
    EXPECT_FALSE(t.admits(1.9));
    EXPECT_TRUE(t.admits(2.0));
    EXPECT_TRUE(t.admits(3.0));
    EXPECT_TRUE(t.admits(4.0));
    EXPECT_FALSE(t.admits(4.1));
}

TEST(Threshold, OutsideBandAdmitsOutside)
{
    Threshold t(ThresholdKind::OutsideBand, 2.0, 4.0);
    EXPECT_TRUE(t.admits(1.9));
    EXPECT_FALSE(t.admits(3.0));
    EXPECT_TRUE(t.admits(4.1));
}

TEST(Threshold, KindLimitAccessors)
{
    Threshold t(ThresholdKind::Band, 2.0, 4.0);
    EXPECT_EQ(t.kind(), ThresholdKind::Band);
    EXPECT_DOUBLE_EQ(t.lowLimit(), 2.0);
    EXPECT_DOUBLE_EQ(t.highLimit(), 4.0);
}

TEST(Threshold, RejectsWrongConstructorForm)
{
    EXPECT_THROW(Threshold(ThresholdKind::Band, 1.0), ConfigError);
    EXPECT_THROW(Threshold(ThresholdKind::Min, 1.0, 2.0), ConfigError);
    EXPECT_THROW(Threshold(ThresholdKind::Band, 4.0, 2.0), ConfigError);
}

} // namespace
} // namespace sidewinder::dsp
