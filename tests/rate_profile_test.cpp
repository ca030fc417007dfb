#include "timeline/rate_profile.hpp"

#include <gtest/gtest.h>

namespace edgesched::timeline {
namespace {

TEST(RateProfile, EmptyProfile) {
  RateProfile p;
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.volume(), 0.0);
  EXPECT_DOUBLE_EQ(p.cumulative(10.0), 0.0);
  EXPECT_DOUBLE_EQ(p.cumulative(5.0), 0.0);
}

TEST(RateProfile, SingleSegment) {
  RateProfile p;
  p.append(1.0, 3.0, 2.0);
  EXPECT_DOUBLE_EQ(p.volume(), 4.0);
  EXPECT_DOUBLE_EQ(p.start_time(), 1.0);
  EXPECT_DOUBLE_EQ(p.finish_time(), 3.0);
  // Rate 2 inside the segment, nothing moves before or after it.
  EXPECT_DOUBLE_EQ(p.cumulative(2.5) - p.cumulative(2.0), 1.0);
  EXPECT_DOUBLE_EQ(p.cumulative(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.cumulative(1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.cumulative(3.5), 4.0);
}

TEST(RateProfile, CumulativeIsPiecewiseLinear) {
  RateProfile p;
  p.append(0.0, 2.0, 1.0);   // 2 units
  p.append(4.0, 6.0, 3.0);   // 6 units after a gap
  EXPECT_DOUBLE_EQ(p.cumulative(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.cumulative(1.0), 1.0);
  EXPECT_DOUBLE_EQ(p.cumulative(3.0), 2.0);  // inside the gap
  EXPECT_DOUBLE_EQ(p.cumulative(5.0), 5.0);
  EXPECT_DOUBLE_EQ(p.cumulative(100.0), 8.0);
  EXPECT_DOUBLE_EQ(p.volume(), 8.0);
}

TEST(RateProfile, MergesContiguousEqualRates) {
  RateProfile p;
  p.append(0.0, 2.0, 1.5);
  p.append(2.0, 5.0, 1.5);
  EXPECT_EQ(p.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(p.segments()[0].end, 5.0);
}

TEST(RateProfile, KeepsDistinctRatesSeparate) {
  RateProfile p;
  p.append(0.0, 2.0, 1.0);
  p.append(2.0, 4.0, 2.0);
  EXPECT_EQ(p.segments().size(), 2u);
}

TEST(RateProfile, RejectsDisorderedAppend) {
  RateProfile p;
  p.append(5.0, 6.0, 1.0);
  EXPECT_THROW(p.append(0.0, 1.0, 1.0), InternalError);
  EXPECT_THROW(p.append(6.0, 6.0, 1.0), InternalError);
  EXPECT_THROW(p.append(6.0, 7.0, 0.0), InternalError);
}

TEST(RateProfile, Breakpoints) {
  RateProfile p;
  p.append(0.0, 2.0, 1.0);
  p.append(4.0, 6.0, 3.0);
  EXPECT_EQ(p.breakpoints(), (std::vector<double>{0.0, 2.0, 4.0, 6.0}));
}

TEST(RateProfile, BreakpointsOfAbuttingSegments) {
  RateProfile p;
  p.append(0.0, 2.0, 1.0);
  p.append(2.0, 4.0, 2.0);
  EXPECT_EQ(p.breakpoints(), (std::vector<double>{0.0, 2.0, 4.0}));
}

}  // namespace
}  // namespace edgesched::timeline
