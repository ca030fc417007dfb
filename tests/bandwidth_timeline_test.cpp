#include "timeline/bandwidth_timeline.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace edgesched::timeline {
namespace {

TEST(BandwidthTimeline, FreshTimelineHasFullCapacity) {
  BandwidthTimeline tl(4.0);
  EXPECT_DOUBLE_EQ(tl.capacity(), 4.0);
  EXPECT_DOUBLE_EQ(tl.remaining_at(0.0), 4.0);
  EXPECT_DOUBLE_EQ(tl.remaining_at(1000.0), 4.0);
  EXPECT_THROW(BandwidthTimeline{0.0}, std::invalid_argument);
}

TEST(BandwidthTimeline, TransferFromUsesFullRate) {
  BandwidthTimeline tl(4.0);
  RateProfile p;
  tl.transfer_from(2.0, 8.0, p);
  ASSERT_EQ(p.segments().size(), 1u);
  EXPECT_DOUBLE_EQ(p.start_time(), 2.0);
  EXPECT_DOUBLE_EQ(p.finish_time(), 4.0);  // 8 volume at rate 4
  EXPECT_DOUBLE_EQ(p.volume(), 8.0);
}

TEST(BandwidthTimeline, ConsumeReducesRemaining) {
  BandwidthTimeline tl(4.0);
  RateProfile p;
  tl.transfer_from(0.0, 8.0, p);  // [0, 2] at rate 4
  tl.consume(p);
  tl.check_invariants();
  EXPECT_DOUBLE_EQ(tl.remaining_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(tl.remaining_at(3.0), 4.0);
}

TEST(BandwidthTimeline, SecondTransferSharesLeftovers) {
  BandwidthTimeline tl(4.0);
  RateProfile half;
  half.append(0.0, 2.0, 2.0);  // uses half the link
  tl.consume(half);
  RateProfile p;
  tl.transfer_from(0.0, 8.0, p);
  // 2 units/s available until t=2 (4 volume), then 4 units/s: finishes at 3.
  EXPECT_DOUBLE_EQ(p.finish_time(), 3.0);
  EXPECT_NEAR(p.volume(), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(p.cumulative(1.0), 2.0);                       // rate 2
  EXPECT_DOUBLE_EQ(p.cumulative(2.5) - p.cumulative(2.0), 2.0);  // rate 4
}

TEST(BandwidthTimeline, TransferWaitsForFreeBandwidth) {
  BandwidthTimeline tl(4.0);
  RateProfile blocker;
  blocker.append(0.0, 5.0, 4.0);  // saturates the link until t=5
  tl.consume(blocker);
  RateProfile p;
  tl.transfer_from(1.0, 4.0, p);
  EXPECT_DOUBLE_EQ(p.start_time(), 5.0);
  EXPECT_DOUBLE_EQ(p.finish_time(), 6.0);
}

TEST(BandwidthTimeline, FirstAvailableSkipsSaturation) {
  BandwidthTimeline tl(2.0);
  RateProfile blocker;
  blocker.append(1.0, 3.0, 2.0);
  tl.consume(blocker);
  EXPECT_DOUBLE_EQ(tl.probe(0.0, 1.0).first_flow, 0.0);
  EXPECT_DOUBLE_EQ(tl.probe(1.5, 1.0).first_flow, 3.0);
  EXPECT_DOUBLE_EQ(tl.probe(4.0, 1.0).first_flow, 4.0);
  // The finish walk resumes where the first flow starts.
  EXPECT_DOUBLE_EQ(tl.probe(1.5, 1.0).finish, 3.5);
}

TEST(BandwidthTimeline, EarliestFinishIntegratesRemaining) {
  BandwidthTimeline tl(2.0);
  RateProfile half;
  half.append(0.0, 4.0, 1.0);
  tl.consume(half);
  // 1 unit/s until t=4, then 2: volume 6 needs 4 + (6-4)/2 = 5.
  EXPECT_DOUBLE_EQ(tl.probe(0.0, 6.0).finish, 5.0);
  // Probing never mutates:
  EXPECT_DOUBLE_EQ(tl.remaining_at(1.0), 1.0);
}

TEST(BandwidthTimeline, ForwardLimitedByInflowRate) {
  BandwidthTimeline tl(4.0);
  RateProfile inflow;
  inflow.append(0.0, 4.0, 1.0);  // slow upstream: 4 volume at rate 1
  RateProfile out;
  tl.forward(inflow, out);
  // No backlog ever builds: outflow mirrors inflow.
  EXPECT_NEAR(out.volume(), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(out.finish_time(), 4.0);
  EXPECT_DOUBLE_EQ(out.cumulative(2.5) - out.cumulative(2.0), 0.5);
}

TEST(BandwidthTimeline, ForwardLimitedByCapacity) {
  BandwidthTimeline tl(1.0);
  RateProfile inflow;
  inflow.append(0.0, 1.0, 4.0);  // fast upstream: 4 volume in 1s
  RateProfile out;
  tl.forward(inflow, out);
  // Capacity 1: backlog builds, drains until t=4.
  EXPECT_NEAR(out.volume(), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(out.finish_time(), 4.0);
  EXPECT_DOUBLE_EQ(out.cumulative(1.0) - out.cumulative(0.5), 0.5);
  EXPECT_DOUBLE_EQ(out.cumulative(4.0) - out.cumulative(3.5), 0.5);
}

TEST(BandwidthTimeline, ForwardNeverSendsBeforeData) {
  BandwidthTimeline tl(10.0);
  RateProfile inflow;
  inflow.append(2.0, 4.0, 1.0);
  RateProfile out;
  tl.forward(inflow, out);
  EXPECT_GE(out.start_time(), 2.0);
  // Causality at every breakpoint.
  for (double t : out.breakpoints()) {
    EXPECT_LE(out.cumulative(t), inflow.cumulative(t) + 1e-9);
  }
}

TEST(BandwidthTimeline, ForwardAroundBusyWindow) {
  BandwidthTimeline tl(2.0);
  RateProfile blocker;
  blocker.append(1.0, 2.0, 2.0);  // link saturated during [1, 2)
  tl.consume(blocker);
  RateProfile inflow;
  inflow.append(0.0, 3.0, 1.0);  // 3 volume trickling in
  RateProfile out;
  tl.forward(inflow, out);
  EXPECT_NEAR(out.volume(), 3.0, 1e-9);
  // [0,1): sends 1 at rate 1 (no backlog). [1,2): blocked, backlog grows
  // to 1. [2,...): drains at rate 2 while inflow adds rate 1: backlog
  // empties at t=3; 2 volume moved in [2,3]. Done at t=3.
  EXPECT_DOUBLE_EQ(out.finish_time(), 3.0);
  EXPECT_DOUBLE_EQ(out.cumulative(1.0) - out.cumulative(0.5), 0.5);
  EXPECT_DOUBLE_EQ(out.cumulative(2.0) - out.cumulative(1.0), 0.0);
  EXPECT_DOUBLE_EQ(out.cumulative(3.0) - out.cumulative(2.5), 1.0);
}

TEST(BandwidthTimeline, ForwardChainConservesVolume) {
  BandwidthTimeline a(3.0);
  BandwidthTimeline b(2.0);
  BandwidthTimeline c(5.0);
  RateProfile p1;
  a.transfer_from(0.0, 12.0, p1);
  a.consume(p1);
  RateProfile p2;
  b.forward(p1, p2);
  b.consume(p2);
  RateProfile p3;
  c.forward(p2, p3);
  c.consume(p3);
  EXPECT_NEAR(p2.volume(), 12.0, 1e-6);
  EXPECT_NEAR(p3.volume(), 12.0, 1e-6);
  // Slowest link in the chain dominates: 12 volume at capacity 2 from t=0
  // cannot beat t=6.
  EXPECT_GE(p3.finish_time(), 6.0 - 1e-9);
  // And the chain is work-conserving: it achieves exactly t=6.
  EXPECT_NEAR(p3.finish_time(), 6.0, 1e-6);
}

TEST(BandwidthTimeline, LargeTimeMagnitudesConverge) {
  // Regression: at schedule times around 1e6+, one-ulp rounding leaves
  // sub-representable residual backlogs; the sweep must treat them as
  // noise instead of spinning (fig4 paper-scale failure).
  Rng rng(20060815);
  for (int round = 0; round < 40; ++round) {
    const double base = 2.0e6 + rng.uniform_real(0.0, 1.0e6);
    std::vector<timeline::BandwidthTimeline> chain;
    for (int hop = 0; hop < 3; ++hop) {
      chain.emplace_back(
          static_cast<double>(rng.uniform_int(1, 10)));
      // Pre-existing traffic near the transfer window; fractions are
      // capped so overlapping blockers never oversubscribe the link.
      for (int k = 0; k < 3; ++k) {
        const double start = base + rng.uniform_real(-100.0, 900.0);
        const double len = rng.uniform_real(0.1, 200.0);
        const double rate =
            chain.back().capacity() * rng.uniform_real(0.05, 0.25);
        RateProfile blocker;
        blocker.append(start, start + len, rate);
        chain.back().consume(blocker);
      }
    }
    const double volume = rng.uniform_real(0.5, 9000.0);
    RateProfile profile;
    chain[0].transfer_from(base, volume, profile);
    chain[0].consume(profile);
    EXPECT_NEAR(profile.volume(), volume,
                1e-5 * std::max(1.0, volume));
    RateProfile next;
    for (std::size_t hop = 1; hop < chain.size(); ++hop) {
      chain[hop].forward(profile, next);
      std::swap(profile, next);
      chain[hop].consume(profile);
      EXPECT_NEAR(profile.volume(), volume,
                  1e-5 * std::max(1.0, volume));
    }
  }
}

TEST(BandwidthTimeline, ConsumeRejectsOverbooking) {
  BandwidthTimeline tl(1.0);
  RateProfile p;
  p.append(0.0, 1.0, 2.0);  // twice the capacity
  EXPECT_THROW(tl.consume(p), InternalError);
}

TEST(BandwidthTimeline, SplitPointsAccumulate) {
  BandwidthTimeline tl(4.0);
  for (int i = 0; i < 10; ++i) {
    RateProfile p;
    p.append(i, i + 2.0, 0.25);
    tl.consume(p);
    tl.check_invariants();
  }
  EXPECT_DOUBLE_EQ(tl.remaining_at(0.5), 3.75);
  EXPECT_DOUBLE_EQ(tl.remaining_at(5.5), 3.5);  // two overlapping consumers
}

}  // namespace
}  // namespace edgesched::timeline
