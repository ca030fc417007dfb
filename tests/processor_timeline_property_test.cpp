// Equivalence properties of the processor timeline's hinted first-fit
// walk.
//
// `ProcessorTimeline::earliest_start` binary-searches past the gaps that
// end too early to admit the task and walks the rest in gap order. The
// skip is a pure fast path: every answer must be bit-identical to
// `earliest_start_linear`, the same walk entered at gap 0, including in
// the eps-tolerance corners (zero-length slots, commits overlapping a
// neighbour within tolerance, non-monotone gap starts). These tests
// drive both entries in lockstep over randomized commit sequences and
// hostile hand-built layouts. (The suite names speak of a gap index
// because the sorted slot vector is one, as in the link-probe suite
// gap_index_property_test.)
#include <gtest/gtest.h>

#include <vector>

#include "timeline/processor_timeline.hpp"
#include "timeline/tolerance.hpp"
#include "util/rng.hpp"

namespace edgesched::timeline {
namespace {

class ProcessorGapIndexProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

// Randomized query/commit sequences: each query must agree between the
// hinted and the gap-0 walk, and the slots must stay sorted and disjoint
// throughout.
TEST_P(ProcessorGapIndexProperty, IndexedStartMatchesLinearOverSequence) {
  Rng rng(GetParam());
  ProcessorTimeline tl;
  for (std::size_t i = 0; i < 1500; ++i) {
    const double horizon = tl.last_finish();
    const double ready = rng.uniform_real(0.0, horizon + 10.0);
    // Zero durations are the recovery-stub / dummy-task case and the
    // worst eps-window stressor: keep them common.
    const double duration =
        rng.bernoulli(0.15) ? 0.0 : rng.uniform_real(0.01, 5.0);

    const double hinted = tl.earliest_start(ready, duration);
    const double linear = tl.earliest_start_linear(ready, duration);
    ASSERT_EQ(hinted, linear) << "round " << i;

    if (i % 3 == 0) {
      tl.commit(dag::TaskId(i), hinted, duration);
    }
    if (i % 100 == 0) {
      tl.check_invariants();
    }
  }
  tl.check_invariants();
}

// Large-magnitude times (makespans reach 1e7 at paper scale): the
// binary-search skip threshold must respect the relative tolerance.
TEST_P(ProcessorGapIndexProperty, IndexedStartMatchesLinearAtLargeMagnitudes) {
  Rng rng(GetParam() + 100);
  ProcessorTimeline tl;
  const double base = 1e7;
  for (std::size_t i = 0; i < 400; ++i) {
    const double ready = base + rng.uniform_real(0.0, 1000.0);
    const double duration =
        rng.bernoulli(0.2) ? 0.0 : rng.uniform_real(0.5, 20.0);
    const double hinted = tl.earliest_start(ready, duration);
    const double linear = tl.earliest_start_linear(ready, duration);
    ASSERT_EQ(hinted, linear) << "round " << i;
    if (i % 2 == 0) {
      tl.commit(dag::TaskId(i), hinted, duration);
    }
  }
  tl.check_invariants();
}

// Hostile layout: a slot whose finish overruns the next slot's start
// within tolerance leaves the gap-start sequence non-monotone (gap
// starts 10+4e-9, then 10). Queries landing inside that eps window must
// still match the walk from gap 0.
TEST(ProcessorGapIndexHostile, EpsOverlapKeepsPathsIdentical) {
  ProcessorTimeline tl;
  // Twenty slots far to the right give the walk a long tail after the
  // eps window.
  for (std::size_t i = 0; i < 20; ++i) {
    const double start = 1000.0 + 10.0 * static_cast<double>(i);
    tl.commit(dag::TaskId(100 + i), start, 5.0);
  }
  const double overrun = 10.0 + 4e-9;  // within time_eps(10) of 10.0
  tl.commit(dag::TaskId(std::size_t{0}), 5.0, overrun - 5.0);  // 10 + 4e-9
  tl.commit(dag::TaskId(std::size_t{1}), 10.0, 0.0);  // zero-length at 10
  tl.check_invariants();

  const double probes[] = {0.0,  2.0,     9.999999999, 10.0,
                           overrun, 10.5, 999.0,       5000.0};
  const double durations[] = {0.0, 1e-12, 0.5, 3.0, 80.0};
  for (const double ready : probes) {
    for (const double duration : durations) {
      ASSERT_EQ(tl.earliest_start(ready, duration),
                tl.earliest_start_linear(ready, duration))
          << "ready " << ready << " duration " << duration;
    }
  }
}

// Stacked zero-length slots create duplicate zero-width gaps; both
// walks must see them all and keep answering identically.
TEST(ProcessorGapIndexHostile, ZeroLengthClustersStayConsistent) {
  ProcessorTimeline tl;
  for (std::size_t i = 0; i < 16; ++i) {
    tl.commit(dag::TaskId(i), 50.0 + 5.0 * static_cast<double>(i), 2.0);
  }
  for (std::size_t i = 0; i < 6; ++i) {
    tl.commit(dag::TaskId(200 + i), 10.0, 0.0);
  }
  tl.check_invariants();
  for (const double ready : {0.0, 9.5, 10.0, 10.1, 49.0, 200.0}) {
    for (const double duration : {0.0, 0.4, 3.0, 41.0}) {
      ASSERT_EQ(tl.earliest_start(ready, duration),
                tl.earliest_start_linear(ready, duration))
          << "ready " << ready << " duration " << duration;
    }
  }
}

// A copied timeline is an independent value: it keeps agreeing with the
// gap-0 walk as it grows, and the original stays intact.
TEST(ProcessorGapIndexHostile, CopiedTimelineKeepsConsistentIndex) {
  Rng rng(7);
  ProcessorTimeline tl;
  for (std::size_t i = 0; i < 40; ++i) {
    const double ready = rng.uniform_real(0.0, tl.last_finish() + 4.0);
    const double duration = rng.uniform_real(0.1, 3.0);
    tl.commit(dag::TaskId(i), tl.earliest_start(ready, duration), duration);
  }
  ProcessorTimeline copy = tl;
  copy.check_invariants();
  for (std::size_t i = 0; i < 60; ++i) {
    const double ready = rng.uniform_real(0.0, copy.last_finish() + 4.0);
    const double duration = rng.uniform_real(0.1, 3.0);
    const double start = copy.earliest_start(ready, duration);
    ASSERT_EQ(start, copy.earliest_start_linear(ready, duration));
    copy.commit(dag::TaskId(100 + i), start, duration);
  }
  copy.check_invariants();
  tl.check_invariants();  // original untouched by the copy's growth
  EXPECT_EQ(tl.slots().size(), 40u);
}

// Many short gaps after the hint, then a long task: the layout on which
// the walk costs the most. The hinted walk must still agree with the
// gap-0 walk, and it examines every gap from the hint to the open tail
// (extension_scaling gates the per-query average on real workloads).
TEST(ProcessorGapIndexHostile, LongTaskAfterManyShortGapsWalksToTail) {
  ProcessorTimeline tl;
  constexpr std::size_t kSlots = 400;
  // Slot i occupies [10 + 1.5 i, 11 + 1.5 i]: 0.5-long gaps between.
  for (std::size_t i = 0; i < kSlots; ++i) {
    tl.commit(dag::TaskId(i), 10.0 + 1.5 * static_cast<double>(i), 1.0);
  }
  tl.check_invariants();

  const std::uint64_t steps_before = tl.query_stats().gap_steps;
  const double hinted = tl.earliest_start(0.0, 100.0);
  const std::uint64_t hinted_steps =
      tl.query_stats().gap_steps - steps_before;
  EXPECT_EQ(hinted, tl.earliest_start_linear(0.0, 100.0));
  EXPECT_EQ(hinted, tl.last_finish());
  // Slots 0..59 start before the earliest finish 100 and are skipped;
  // the walk visits gaps 60..399 and the tail.
  EXPECT_EQ(hinted_steps, kSlots - 60 + 1);

  // Short tasks still land in the first short gap at or after ready.
  for (const double ready : {0.0, 10.9, 300.0, 598.0}) {
    for (const double duration : {0.0, 0.25, 0.5, 0.75}) {
      ASSERT_EQ(tl.earliest_start(ready, duration),
                tl.earliest_start_linear(ready, duration))
          << "ready " << ready << " duration " << duration;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProcessorGapIndexProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace edgesched::timeline
