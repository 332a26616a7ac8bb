/**
 * @file
 * Unit tests for the hub Value variant: kind tagging, typed access,
 * and cost-unit accounting.
 */

#include <gtest/gtest.h>

#include "hub/value.h"
#include "support/error.h"

namespace sidewinder::hub {
namespace {

TEST(Value, DefaultIsScalarZero)
{
    const Value v;
    EXPECT_EQ(v.kind(), il::ValueKind::Scalar);
    EXPECT_DOUBLE_EQ(v.scalar(), 0.0);
    EXPECT_EQ(v.units(), 1u);
}

TEST(Value, ScalarRoundTrip)
{
    const Value v(3.25);
    EXPECT_EQ(v.kind(), il::ValueKind::Scalar);
    EXPECT_DOUBLE_EQ(v.scalar(), 3.25);
    EXPECT_THROW(v.frame(), InternalError);
    EXPECT_THROW(v.complexFrame(), InternalError);
}

TEST(Value, FrameRoundTrip)
{
    const Value v(std::vector<double>{1.0, 2.0, 3.0});
    EXPECT_EQ(v.kind(), il::ValueKind::Frame);
    EXPECT_EQ(v.frame().size(), 3u);
    EXPECT_EQ(v.units(), 3u);
    EXPECT_THROW(v.scalar(), InternalError);
}

TEST(Value, ComplexFrameRoundTrip)
{
    std::vector<dsp::Complex> bins = {{1.0, 2.0}, {3.0, -4.0}};
    const Value v(std::move(bins));
    EXPECT_EQ(v.kind(), il::ValueKind::ComplexFrame);
    ASSERT_EQ(v.complexFrame().size(), 2u);
    EXPECT_DOUBLE_EQ(v.complexFrame()[1].imag(), -4.0);
    EXPECT_EQ(v.units(), 2u);
    EXPECT_THROW(v.frame(), InternalError);
}

TEST(Value, CopyAndReassign)
{
    Value v(std::vector<double>{1.5});
    Value w = v;
    v = Value(std::vector<dsp::Complex>{{9.0, 0.0}});
    EXPECT_EQ(w.kind(), il::ValueKind::Frame);
    EXPECT_EQ(w.frame(), std::vector<double>{1.5});
    EXPECT_EQ(v.kind(), il::ValueKind::ComplexFrame);
}

} // namespace
} // namespace sidewinder::hub
