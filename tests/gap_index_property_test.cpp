// Equivalence properties of the hot-path probe optimizations.
//
// The indexed gap search (binary-searched first-fit hint) and the
// slack-exhaustion early exit are pure fast paths: they must produce
// placements bit-identical to the linear reference scans they replaced
// (`probe_basic_linear` / `probe_optimal_linear`, kept as test oracles).
// These tests drive both paths through 1k randomized edge sequences and
// require slot-for-slot identical timelines.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "timeline/link_timeline.hpp"
#include "timeline/optimal_insertion.hpp"
#include "util/rng.hpp"

namespace edgesched::timeline {
namespace {

void expect_same_placement(const Placement& indexed,
                           const Placement& linear, std::size_t round) {
  ASSERT_EQ(indexed.position, linear.position) << "round " << round;
  ASSERT_EQ(indexed.earliest_start, linear.earliest_start)
      << "round " << round;
  ASSERT_EQ(indexed.start, linear.start) << "round " << round;
  ASSERT_EQ(indexed.finish, linear.finish) << "round " << round;
}

void expect_same_slots(const LinkTimeline& a, const LinkTimeline& b,
                       std::size_t round) {
  ASSERT_EQ(a.size(), b.size()) << "round " << round;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const TimeSlot& sa = a.slots()[i];
    const TimeSlot& sb = b.slots()[i];
    ASSERT_EQ(sa.earliest_start, sb.earliest_start)
        << "round " << round << " slot " << i;
    ASSERT_EQ(sa.start, sb.start) << "round " << round << " slot " << i;
    ASSERT_EQ(sa.finish, sb.finish) << "round " << round << " slot " << i;
    ASSERT_EQ(sa.edge, sb.edge) << "round " << round << " slot " << i;
  }
}

class GapIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

// 1k randomized edges committed through the indexed probe and through
// the linear reference in lockstep: every probe must agree and the two
// timelines must stay slot-for-slot identical throughout.
TEST_P(GapIndexProperty, IndexedBasicProbeMatchesLinearOverSequence) {
  Rng rng(GetParam());
  LinkTimeline indexed;
  LinkTimeline linear;
  for (std::size_t i = 0; i < 1000; ++i) {
    const double horizon = indexed.last_finish();
    const double t_es = rng.uniform_real(0.0, horizon + 10.0);
    const double duration = rng.uniform_real(0.01, 5.0);
    const double t_f_min =
        rng.bernoulli(0.3) ? t_es + rng.uniform_real(0.0, 6.0) : 0.0;

    const Placement pi = indexed.probe_basic(t_es, t_f_min, duration);
    const Placement pl =
        linear.probe_basic_linear(t_es, t_f_min, duration);
    expect_same_placement(pi, pl, i);

    // Commit on a third of the probes so the timelines keep growing and
    // later probes run against ever denser slot vectors.
    if (i % 3 == 0) {
      indexed.commit(pi, dag::EdgeId(i));
      linear.commit(pl, dag::EdgeId(i));
      expect_same_slots(indexed, linear, i);
    }
    // Occasionally roll one committed slot back (Basic Algorithm's
    // tentative-evaluation pattern) to also exercise shrinking vectors.
    if (i % 97 == 0 && !indexed.empty()) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(indexed.size()) - 1));
      indexed.erase(victim);
      linear.erase(victim);
      expect_same_slots(indexed, linear, i);
    }
  }
  indexed.check_invariants();
  expect_same_slots(indexed, linear, 1000);
}

// Large-magnitude times (makespans reach 1e7 at paper scale): the
// gap-index threshold must respect the relative tolerances.
TEST_P(GapIndexProperty, IndexedProbeMatchesLinearAtLargeMagnitudes) {
  Rng rng(GetParam() + 100);
  LinkTimeline indexed;
  LinkTimeline linear;
  const double base = 1e7;
  for (std::size_t i = 0; i < 300; ++i) {
    const double t_es = base + rng.uniform_real(0.0, 1000.0);
    const double duration = rng.uniform_real(0.5, 20.0);
    const Placement pi = indexed.probe_basic(t_es, 0.0, duration);
    const Placement pl = linear.probe_basic_linear(t_es, 0.0, duration);
    expect_same_placement(pi, pl, i);
    if (i % 2 == 0) {
      indexed.commit(pi, dag::EdgeId(i));
      linear.commit(pl, dag::EdgeId(i));
    }
  }
  expect_same_slots(indexed, linear, 300);
}

// The early-exit accum scan must return the same placement *and* the
// same displacement cascade as the full tail-to-head reference scan.
TEST_P(GapIndexProperty, EarlyExitOptimalProbeMatchesFullScan) {
  Rng rng(GetParam() + 200);
  for (std::size_t round = 0; round < 250; ++round) {
    LinkTimeline tl;
    const std::size_t slots =
        static_cast<std::size_t>(rng.uniform_int(0, 24));
    for (std::size_t i = 0; i < slots; ++i) {
      const double gap = rng.uniform_real(0.0, 2.0);
      const double duration = rng.uniform_real(0.3, 3.0);
      tl.commit(tl.probe_basic(tl.last_finish() + gap, 0.0, duration),
                dag::EdgeId(i));
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      tl.set_deferral(i, kind == 0 ? 0.0
                                   : (kind == 1 ? rng.uniform_real(0.0, 1.5)
                                                : rng.uniform_real(1.5, 12.0)));
    }
    const double t_es = rng.uniform_real(0.0, tl.last_finish() + 5.0);
    const double duration = rng.uniform_real(0.2, 4.0);
    const double t_f_min =
        rng.bernoulli(0.3) ? t_es + rng.uniform_real(0.0, 6.0) : 0.0;

    const OptimalPlacement fast =
        probe_optimal(tl, t_es, t_f_min, duration);
    const OptimalPlacement full =
        probe_optimal_linear(tl, t_es, t_f_min, duration);

    ASSERT_EQ(fast.placement.position, full.placement.position)
        << "round " << round;
    ASSERT_EQ(fast.placement.start, full.placement.start)
        << "round " << round;
    ASSERT_EQ(fast.placement.finish, full.placement.finish)
        << "round " << round;
    ASSERT_EQ(fast.shifts.size(), full.shifts.size()) << "round " << round;
    for (std::size_t s = 0; s < fast.shifts.size(); ++s) {
      ASSERT_EQ(fast.shifts[s].position, full.shifts[s].position);
      ASSERT_EQ(fast.shifts[s].new_start, full.shifts[s].new_start);
      ASSERT_EQ(fast.shifts[s].new_finish, full.shifts[s].new_finish);
    }
  }
}

// The allocation-free probe_optimal_into must behave exactly like
// probe_optimal even when its scratch carries stale state from previous
// (larger) results.
TEST_P(GapIndexProperty, ScratchReuseIsStateless) {
  Rng rng(GetParam() + 300);
  OptimalPlacement scratch;
  for (std::size_t round = 0; round < 100; ++round) {
    LinkTimeline tl;
    const std::size_t slots =
        static_cast<std::size_t>(rng.uniform_int(0, 12));
    for (std::size_t i = 0; i < slots; ++i) {
      tl.commit(tl.probe_basic(tl.last_finish() +
                                   rng.uniform_real(0.0, 1.0),
                               0.0, rng.uniform_real(0.5, 2.0)),
                dag::EdgeId(i));
      tl.set_deferral(i, (i % 2 == 0) ? 3.0 : 0.0);
    }
    const double t_es = rng.uniform_real(0.0, tl.last_finish() + 2.0);
    const OptimalPlacement fresh = probe_optimal(tl, t_es, 0.0, 1.0);
    probe_optimal_into(tl, t_es, 0.0, 1.0, scratch);
    ASSERT_EQ(scratch.placement.position, fresh.placement.position);
    ASSERT_EQ(scratch.placement.start, fresh.placement.start);
    ASSERT_EQ(scratch.placement.finish, fresh.placement.finish);
    ASSERT_EQ(scratch.shifts.size(), fresh.shifts.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapIndexProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace edgesched::timeline
