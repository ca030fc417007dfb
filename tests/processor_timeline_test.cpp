#include "timeline/processor_timeline.hpp"

#include <gtest/gtest.h>

namespace edgesched::timeline {
namespace {

dag::TaskId task(std::size_t i) { return dag::TaskId(i); }

TEST(ProcessorTimeline, EmptyStartsAtReadyTime) {
  ProcessorTimeline tl;
  EXPECT_DOUBLE_EQ(tl.earliest_start(3.5, 2.0), 3.5);
  EXPECT_DOUBLE_EQ(tl.last_finish(), 0.0);
}

TEST(ProcessorTimeline, AppendsAfterBusyStretch) {
  ProcessorTimeline tl;
  tl.commit(task(0), 0.0, 4.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(tl.last_finish(), 4.0);
}

TEST(ProcessorTimeline, InsertionFillsGap) {
  ProcessorTimeline tl;
  tl.commit(task(0), 0.0, 2.0);
  tl.commit(task(1), 10.0, 2.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0.0, 9.0), 12.0);  // gap too small
  EXPECT_DOUBLE_EQ(tl.earliest_start(5.0, 3.0), 5.0);   // within the gap
  EXPECT_DOUBLE_EQ(tl.earliest_start(8.0, 3.0), 12.0);  // would overlap
}

TEST(ProcessorTimeline, ZeroDurationTask) {
  // Non-preemption applies to zero-length tasks too: they wait for the
  // processor to go idle rather than squeezing into a busy interval.
  ProcessorTimeline tl;
  tl.commit(task(0), 0.0, 2.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(1.0, 0.0), 2.0);
  tl.commit(task(1), 2.0, 0.0);
  EXPECT_EQ(tl.slots().size(), 2u);
}

TEST(ProcessorTimeline, CommitOutOfOrderStaysSorted) {
  ProcessorTimeline tl;
  tl.commit(task(0), 10.0, 2.0);
  tl.commit(task(1), 0.0, 2.0);
  tl.commit(task(2), 5.0, 2.0);
  ASSERT_EQ(tl.slots().size(), 3u);
  EXPECT_EQ(tl.slots()[0].task, task(1));
  EXPECT_EQ(tl.slots()[1].task, task(2));
  EXPECT_EQ(tl.slots()[2].task, task(0));
}

TEST(ProcessorTimeline, OverlapIsRejected) {
  ProcessorTimeline tl;
  tl.commit(task(0), 0.0, 4.0);
  EXPECT_THROW(tl.commit(task(1), 2.0, 2.0), InternalError);
  EXPECT_THROW(tl.commit(task(1), 3.9, 1.0), InternalError);
}

TEST(ProcessorTimeline, ZeroLengthSlotDoesNotBlockItsStart) {
  // Regression: STG graphs carry zero-weight dummy entry tasks; a
  // committed [0, 0) slot must not prevent a real task from starting at
  // 0 (upper_bound insertion ordering).
  ProcessorTimeline tl;
  tl.commit(task(0), 0.0, 0.0);
  EXPECT_DOUBLE_EQ(tl.earliest_start(0.0, 10.0), 0.0);
  tl.commit(task(1), 0.0, 10.0);
  ASSERT_EQ(tl.slots().size(), 2u);
  EXPECT_EQ(tl.slots()[0].task, task(0));
  EXPECT_EQ(tl.slots()[1].task, task(1));
}

TEST(ProcessorTimeline, StackedZeroLengthSlots) {
  ProcessorTimeline tl;
  tl.commit(task(0), 5.0, 0.0);
  tl.commit(task(1), 5.0, 0.0);
  tl.commit(task(2), 5.0, 2.0);
  EXPECT_EQ(tl.slots().size(), 3u);
  EXPECT_DOUBLE_EQ(tl.last_finish(), 7.0);
}

TEST(ProcessorTimeline, AbuttingTasksAreFine) {
  ProcessorTimeline tl;
  tl.commit(task(0), 0.0, 4.0);
  tl.commit(task(1), 4.0, 2.0);
  EXPECT_DOUBLE_EQ(tl.last_finish(), 6.0);
}

}  // namespace
}  // namespace edgesched::timeline
