#include "timeline/optimal_insertion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

namespace edgesched::timeline {
namespace {

dag::EdgeId edge(std::size_t i) { return dag::EdgeId(i); }

/// Per-edge slack table, written into every slot of a timeline (0 for
/// edges without an entry).
class SlackTable {
 public:
  void set(dag::EdgeId e, double dt) { table_[e] = dt; }
  const LinkTimeline& apply(LinkTimeline& tl) const {
    for (std::size_t i = 0; i < tl.size(); ++i) {
      const auto it = table_.find(tl.slots()[i].edge);
      tl.set_deferral(i, it == table_.end() ? 0.0 : it->second);
    }
    return tl;
  }

 private:
  std::map<dag::EdgeId, double> table_;
};

TEST(OptimalInsertion, EmptyTimelineMatchesBasic) {
  LinkTimeline tl;
  SlackTable slack;
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 3.0, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 3.0);
  EXPECT_DOUBLE_EQ(opt.placement.finish, 5.0);
  EXPECT_TRUE(opt.shifts.empty());
}

TEST(OptimalInsertion, UsesExistingGapWithoutShifting) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));    // [0, 2]
  tl.commit(tl.probe_basic(10.0, 0.0, 2.0), edge(1));   // [10, 12]
  SlackTable slack;  // no slack anywhere
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 5.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 2.0);
  EXPECT_DOUBLE_EQ(opt.placement.finish, 7.0);
  EXPECT_EQ(opt.placement.position, 1u);
  EXPECT_TRUE(opt.shifts.empty());
}

TEST(OptimalInsertion, DefersBlockingSlot) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // [0, 2]
  SlackTable slack;
  slack.set(edge(0), 5.0);
  // Basic insertion would append at [2, 5]; optimal inserts at [0, 3] and
  // defers the occupant to [3, 5].
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 0.0);
  EXPECT_DOUBLE_EQ(opt.placement.finish, 3.0);
  EXPECT_EQ(opt.placement.position, 0u);
  ASSERT_EQ(opt.shifts.size(), 1u);
  EXPECT_EQ(opt.shifts[0].edge, edge(0));
  EXPECT_DOUBLE_EQ(opt.shifts[0].new_start, 3.0);
  EXPECT_DOUBLE_EQ(opt.shifts[0].new_finish, 5.0);
}

TEST(OptimalInsertion, RespectsZeroSlack) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // [0, 2], dt = 0
  SlackTable slack;
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 2.0);  // appended, no deferral
  EXPECT_TRUE(opt.shifts.empty());
}

TEST(OptimalInsertion, PartialSlackIsNotEnough) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // [0, 2]
  SlackTable slack;
  slack.set(edge(0), 0.5);  // can defer to [0.5, 2.5] only
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 3.0);
  // A 3-unit job cannot fit before the slot even after deferral.
  EXPECT_DOUBLE_EQ(opt.placement.start, 2.0);
  EXPECT_TRUE(opt.shifts.empty());
}

TEST(OptimalInsertion, CascadeAcrossTwoSlots) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // [0, 2]
  tl.commit(tl.probe_basic(2.0, 0.0, 2.0), edge(1));  // [2, 4]
  SlackTable slack;
  slack.set(edge(0), 3.0);
  slack.set(edge(1), 3.0);
  // Insert 3 units at the head: [0, 3]; edge0 -> [3, 5], edge1 -> [5, 7].
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 0.0);
  EXPECT_EQ(opt.placement.position, 0u);
  ASSERT_EQ(opt.shifts.size(), 2u);
  EXPECT_DOUBLE_EQ(opt.shifts[0].new_start, 3.0);
  EXPECT_DOUBLE_EQ(opt.shifts[0].new_finish, 5.0);
  EXPECT_DOUBLE_EQ(opt.shifts[1].new_start, 5.0);
  EXPECT_DOUBLE_EQ(opt.shifts[1].new_finish, 7.0);
}

TEST(OptimalInsertion, CascadeLimitedByDownstreamSlack) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // [0, 2]
  tl.commit(tl.probe_basic(2.0, 0.0, 2.0), edge(1));  // [2, 4]
  SlackTable slack;
  slack.set(edge(0), 10.0);
  slack.set(edge(1), 0.0);  // immovable
  // accum(edge0) = min(10, 0 + gap(0)) = 0: cannot insert at the head.
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 4.0);  // appended after everything
  EXPECT_TRUE(opt.shifts.empty());
}

TEST(OptimalInsertion, GapAbsorbsPartOfTheCascade) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // [0, 2]
  tl.commit(tl.probe_basic(5.0, 0.0, 2.0), edge(1));  // [5, 7]
  SlackTable slack;
  slack.set(edge(0), 2.0);
  slack.set(edge(1), 0.0);
  // accum(edge0) = min(2, 0 + (5-2)) = 2; insert 2 units at the head:
  // [0, 2], edge0 defers to [2, 4], and the old [2, 5] gap absorbs the
  // cascade before it reaches the immovable edge1.
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(opt.placement.start, 0.0);
  EXPECT_EQ(opt.placement.position, 0u);
  ASSERT_EQ(opt.shifts.size(), 1u);
  EXPECT_EQ(opt.shifts[0].edge, edge(0));
  EXPECT_DOUBLE_EQ(opt.shifts[0].new_start, 2.0);
  EXPECT_DOUBLE_EQ(opt.shifts[0].new_finish, 4.0);
}

TEST(OptimalInsertion, PicksHeadmostFeasiblePosition) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 1.0), edge(0));   // [0, 1]
  tl.commit(tl.probe_basic(4.0, 0.0, 1.0), edge(1));   // [4, 5]
  tl.commit(tl.probe_basic(9.0, 0.0, 1.0), edge(2));   // [9, 10]
  SlackTable slack;  // generous gaps, no slack needed
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 2.0);
  // Both [1, 4] and [5, 9] fit; the earlier one must win.
  EXPECT_DOUBLE_EQ(opt.placement.start, 1.0);
  EXPECT_EQ(opt.placement.position, 1u);
}

TEST(OptimalInsertion, CommitAppliesShiftsAndKeepsInvariants) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));
  tl.commit(tl.probe_basic(2.0, 0.0, 2.0), edge(1));
  SlackTable slack;
  slack.set(edge(0), 3.0);
  slack.set(edge(1), 3.0);
  const OptimalPlacement opt =
      probe_optimal(slack.apply(tl), 0.0, 0.0, 3.0);
  commit_optimal(tl, opt, edge(2));
  ASSERT_EQ(tl.size(), 3u);
  tl.check_invariants();
  EXPECT_EQ(tl.slots()[0].edge, edge(2));
  EXPECT_DOUBLE_EQ(tl.slots()[0].finish, 3.0);
  EXPECT_EQ(tl.slots()[1].edge, edge(0));
  EXPECT_DOUBLE_EQ(tl.slots()[2].finish, 7.0);
}

TEST(OptimalInsertion, UnsetSlackThrows) {
  LinkTimeline tl;
  tl.commit(tl.probe_basic(0.0, 0.0, 2.0), edge(0));  // slack never written
  EXPECT_TRUE(std::isnan(tl.slots()[0].deferral));
  try {
    (void)probe_optimal(tl, 0.0, 0.0, 1.0);
    FAIL() << "reading an unset slack must throw";
  } catch (const InternalError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("occupied slot references an unscheduled edge"),
              std::string::npos);
  }
}

TEST(OptimalInsertion, NeverWorseThanBasic) {
  // Property: for identical timeline states, the optimal start is <= the
  // basic start.
  LinkTimeline tl;
  tl.commit(tl.probe_basic(1.0, 0.0, 2.0), edge(0));
  tl.commit(tl.probe_basic(4.0, 0.0, 3.0), edge(1));
  tl.commit(tl.probe_basic(9.0, 0.0, 1.0), edge(2));
  SlackTable slack;
  slack.set(edge(0), 1.0);
  slack.set(edge(1), 2.0);
  slack.set(edge(2), 0.5);
  for (double t_es : {0.0, 2.0, 5.0, 8.0, 20.0}) {
    for (double dur : {0.5, 1.5, 3.0, 6.0}) {
      const Placement basic = tl.probe_basic(t_es, 0.0, dur);
      const OptimalPlacement opt =
          probe_optimal(slack.apply(tl), t_es, 0.0, dur);
      EXPECT_LE(opt.placement.start, basic.start + 1e-9)
          << "t_es=" << t_es << " dur=" << dur;
    }
  }
}

}  // namespace
}  // namespace edgesched::timeline
