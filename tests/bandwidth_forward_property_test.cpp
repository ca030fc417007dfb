// Exactness of the cursor-based fluid forward sweep (§5, formulas (4)/(5)).
//
// `BandwidthTimeline::forward` walks the inflow's segments and the link's
// breakpoints with forward-only cursors. The claim is that this changes
// no value: the sweep time and its probe midpoint never decrease, so each
// cursor lands on exactly the index the old per-step binary searches and
// linear rate scan returned. This suite keeps the copying sweep as a
// local oracle and requires bit-equal segments (`==`, no tolerance) on
// seeded timelines loaded to hundreds of breakpoints, including:
//
//   * saturated (zero-capacity) stretches,
//   * inflows shifted later in time,
//   * inflows whose segments leave sub-epsilon gaps or overlaps (their
//     starts are not sweep events),
//   * inflows starting exactly on a link breakpoint and one
//     `std::nextafter` either side of it,
//   * schedule times near 1e6,
//   * long runs of saturated breakpoints after the inflow has fully
//     arrived, which the sweep crosses in one tight loop, and gapped
//     inflows whose gaps span such runs, where it must not.
//
// Both sweeps also count their steps, and the counts must agree: a
// breakpoint crossed in the tight loop still counts as one step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "timeline/bandwidth_timeline.hpp"
#include "timeline/rate_profile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace edgesched::timeline {
namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The instantaneous-rate scan the old sweep used, verbatim.
double rate_at(const RateProfile& profile, double t) {
  for (const RateSegment& seg : profile.segments()) {
    if (t < seg.start) {
      return 0.0;
    }
    if (t < seg.end) {
      return seg.rate;
    }
  }
  return 0.0;
}

double next_after(const std::vector<double>& points, double t) {
  const auto it = std::upper_bound(points.begin(), points.end(), t);
  return it == points.end() ? kInf : *it;
}

/// The sweep as it was before the cursors, kept step for step apart from
/// reading the link through its public accessors: it copies the link's
/// breakpoints and searches them afresh on every step. The oracle the
/// production sweep must match. Adds its steps to `steps`.
RateProfile copying_forward(const BandwidthTimeline& link,
                            const RateProfile& inflow, std::uint64_t& steps) {
  const double volume = inflow.volume();
  EDGESCHED_ASSERT_MSG(volume > kEps, "forward: empty inflow");
  const std::vector<double> in_points = inflow.breakpoints();
  std::vector<double> bw_points;
  bw_points.reserve(link.breakpoints().size());
  for (const auto& bp : link.breakpoints()) {
    bw_points.push_back(bp.first);
  }

  RateProfile out;
  double t = inflow.start_time();
  double sent = 0.0;
  double arrived = 0.0;
  const double vol_eps = kEps * std::max(1.0, volume);
  std::size_t guard = 8 * (in_points.size() + bw_points.size()) + 64;
  while (sent < volume - vol_eps) {
    EDGESCHED_ASSERT_MSG(guard-- > 0, "forward sweep failed to converge");
    ++steps;
    const double t_next =
        std::min(next_after(in_points, t), next_after(bw_points, t));
    const double probe_t = (t_next < kInf) ? 0.5 * (t + t_next) : t + 1.0;
    const double r_in = rate_at(inflow, probe_t);
    const double r_cap = link.remaining_at(probe_t);
    const double backlog = arrived - sent;
    if (backlog > vol_eps && r_cap > kEps) {
      if (t + backlog / r_cap <= t) {
        if (arrived >= volume - vol_eps) {
          break;
        }
        sent = arrived;
        continue;
      }
      double t_end = t_next;
      if (r_cap > r_in + kEps) {
        t_end = std::min(t_end, t + backlog / (r_cap - r_in));
      }
      const double t_done = t + (volume - sent) / r_cap;
      t_end = std::min(t_end, t_done);
      if (t_end - t > kEps) {
        out.append(t, t_end, r_cap);
      }
      sent += r_cap * (t_end - t);
      arrived += r_in * (t_end - t);
      t = t_end;
    } else if (backlog > vol_eps) {
      EDGESCHED_ASSERT_MSG(t_next < kInf,
                           "no capacity and no further events");
      arrived += r_in * (t_next - t);
      t = t_next;
    } else {
      const double rate = std::min(r_cap, r_in);
      if (rate > kEps) {
        const double t_done = t + (volume - sent) / rate;
        if (t_done <= t) {
          break;
        }
        const double t_end = std::min(t_next, t_done);
        if (t_end - t > kEps) {
          out.append(t, t_end, rate);
        }
        sent += rate * (t_end - t);
        arrived += r_in * (t_end - t);
        t = t_end;
      } else {
        EDGESCHED_ASSERT_MSG(t_next < kInf,
                             "forward stalled with no further events");
        arrived += r_in * (t_next - t);
        t = t_next;
      }
    }
    arrived = std::min(arrived, volume);
  }
  return out;
}

/// Runs a sweep; an internal assertion becomes an empty optional, so an
/// assertion that fires in one sweep must fire in the other.
template <typename Sweep>
std::optional<RateProfile> outcome(Sweep&& sweep) {
  try {
    return sweep();
  } catch (const InternalError&) {
    return std::nullopt;
  }
}

/// Forwards `inflow` onto `link` through both sweeps, requires bit-equal
/// results and equal step counts, and returns how many inflows were
/// compared (0 or 1).
int expect_equal_forward(const BandwidthTimeline& link,
                         const RateProfile& inflow, const char* what) {
  std::uint64_t oracle_steps = 0;
  const std::optional<RateProfile> expected =
      outcome([&] { return copying_forward(link, inflow, oracle_steps); });
  const std::uint64_t steps_before = link.forward_steps();
  const std::optional<RateProfile> actual =
      outcome([&] {
        RateProfile out;
        link.forward(inflow, out);
        return out;
      });
  EXPECT_EQ(expected.has_value(), actual.has_value()) << what;
  if (!expected || !actual) {
    return 0;
  }
  EXPECT_EQ(link.forward_steps() - steps_before, oracle_steps) << what;
  const std::span<const RateSegment> want = expected->segments();
  const std::span<const RateSegment> got = actual->segments();
  EXPECT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    EXPECT_TRUE(want[i].start == got[i].start && want[i].end == got[i].end &&
                want[i].rate == got[i].rate)
        << what << ": segment " << i << " is [" << got[i].start << ", "
        << got[i].end << ") @ " << got[i].rate << ", oracle [" << want[i].start
        << ", " << want[i].end << ") @ " << want[i].rate;
  }
  return 1;
}

/// Books `count` greedy source transfers and their forwards from a second
/// link, so the timeline carries hundreds of breakpoints, many of them
/// saturated stretches.
void load(BandwidthTimeline& link, BandwidthTimeline& upstream, double base,
          double horizon, std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const double ready = base + rng.uniform_real(0.0, horizon);
    const double volume = rng.uniform_real(0.5, 12.0);
    if (rng.bernoulli(0.5)) {
      RateProfile p;
      link.transfer_from(ready, volume, p);
      link.consume(p);
    } else {
      RateProfile first;
      upstream.transfer_from(ready, volume, first);
      upstream.consume(first);
      RateProfile p;
      link.forward(first, p);
      link.consume(p);
    }
  }
}

/// `profile` displaced `delta` later: an inflow that reaches the link
/// after its first hop has finished sending.
RateProfile shifted(const RateProfile& profile, double delta) {
  RateProfile result;
  for (const RateSegment& seg : profile.segments()) {
    result.append(seg.start + delta, seg.end + delta, seg.rate);
  }
  return result;
}

/// A synthetic inflow from `start`: segments of random rate and length,
/// separated by real gaps, sub-epsilon gaps or sub-epsilon overlaps.
RateProfile synthetic_inflow(double start, Rng& rng) {
  RateProfile inflow;
  double t = start;
  const auto segments = static_cast<std::size_t>(rng.uniform_int(1, 12));
  for (std::size_t i = 0; i < segments; ++i) {
    const double length = rng.uniform_real(0.01, 4.0);
    const double rate = rng.uniform_real(0.05, 6.0);
    inflow.append(t, t + length, rate);
    t += length;
    switch (rng.uniform_int(0, 3)) {
      case 0:
        t += rng.uniform_real(0.0, 3.0);
        break;
      case 1:
        t += 0.5 * kEps;
        break;
      case 2:
        t -= 0.5 * kEps;
        break;
      default:
        break;
    }
  }
  return inflow;
}

class BandwidthForwardProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BandwidthForwardProperty, CursorSweepMatchesCopyingSweep) {
  for (const double base : {0.0, 1.0e6}) {
    Rng rng(GetParam() * 7919 + static_cast<std::uint32_t>(base > 0.0));
    const double capacity = rng.uniform_real(1.0, 8.0);
    BandwidthTimeline link(capacity);
    BandwidthTimeline upstream(rng.uniform_real(1.0, 8.0));
    const double horizon = 400.0;
    int compared = 0;
    for (int round = 0; round < 6; ++round) {
      load(link, upstream, base, horizon, 60, rng);
      link.check_invariants();
      const auto& bps = link.breakpoints();

      // Real inflows: a greedy first hop, as is and shifted later.
      for (int i = 0; i < 20; ++i) {
        BandwidthTimeline source(rng.uniform_real(0.5, 10.0));
        RateProfile first;
        source.transfer_from(
            base + rng.uniform_real(0.0, horizon), rng.uniform_real(0.5, 20.0), first);
        compared += expect_equal_forward(link, first, "first hop");
        compared += expect_equal_forward(
            link, shifted(first, rng.uniform_real(0.0, 2.0)), "shifted");
      }

      // Synthetic inflows starting on, and one ulp either side of, a
      // link breakpoint.
      for (int i = 0; i < 40; ++i) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(bps.size()) - 1));
        const double bp = bps[at].first;
        compared += expect_equal_forward(link, synthetic_inflow(bp, rng),
                                         "on breakpoint");
        compared += expect_equal_forward(
            link, synthetic_inflow(std::nextafter(bp, -kInf), rng),
            "ulp below breakpoint");
        compared += expect_equal_forward(
            link, synthetic_inflow(std::nextafter(bp, kInf), rng),
            "ulp above breakpoint");
        compared += expect_equal_forward(
            link,
            synthetic_inflow(base + rng.uniform_real(0.0, horizon), rng),
            "anywhere");
      }

      // Forward outputs of this link, re-forwarded onto it: inflows whose
      // boundaries coincide with the link's own breakpoints.
      for (int i = 0; i < 10; ++i) {
        RateProfile first;
        upstream.transfer_from(
            base + rng.uniform_real(0.0, horizon), rng.uniform_real(0.5, 12.0), first);
        RateProfile hop;
        link.forward(first, hop);
        compared += expect_equal_forward(link, hop, "own forward output");
      }
    }
    EXPECT_GT(link.breakpoints().size(), 200u) << "timeline under-loaded";
    // A synthetic inflow whose segments overlap carries more volume than
    // its rate ever delivers, so both sweeps may stall on it alike; nearly
    // every inflow must still produce segments to compare.
    const int total = 6 * (2 * 20 + 4 * 40 + 10);
    EXPECT_GE(compared, total - total / 50);
  }
}

/// Books, from `from` on (past the link's last breakpoint), `runs` runs
/// of `run_length` contiguous saturated stretches (remaining rate 0 or
/// below kEps), each run followed by a stretch with capacity. Returns
/// the run boundaries (start, end) in time order.
std::vector<std::pair<double, double>> book_saturated_runs(
    BandwidthTimeline& link, double from, std::size_t runs,
    std::size_t run_length, Rng& rng) {
  EDGESCHED_ASSERT(from > link.breakpoints().back().first);
  std::vector<std::pair<double, double>> bounds;
  double t = from;
  for (std::size_t r = 0; r < runs; ++r) {
    const double run_start = t;
    for (std::size_t i = 0; i < run_length; ++i) {
      const double length = rng.uniform_real(0.05, 1.0);
      // Each stretch is booked on its own, so the equal-rate stretches
      // stay separate breakpoints instead of merging into one segment.
      const double leave = rng.bernoulli(0.5) ? 0.0 : 0.5 * kEps;
      RateProfile stretch;
      stretch.append(t, t + length, link.capacity() - leave);
      link.consume(stretch);
      t += length;
    }
    bounds.emplace_back(run_start, t);
    t += rng.uniform_real(0.1, 2.0);  // capacity between runs
  }
  return bounds;
}

TEST_P(BandwidthForwardProperty, SaturatedRunsAfterTheInflowEnds) {
  for (const double base : {0.0, 1.0e6}) {
    Rng rng(GetParam() * 104729 + static_cast<std::uint32_t>(base > 0.0));
    const double capacity = rng.uniform_real(1.0, 8.0);
    BandwidthTimeline link(capacity);
    BandwidthTimeline upstream(rng.uniform_real(1.0, 8.0));
    load(link, upstream, base, 50.0, 40, rng);
    const double from = link.breakpoints().back().first + 5.0;
    const std::vector<std::pair<double, double>> runs =
        book_saturated_runs(link, from, 6, 40, rng);
    link.check_invariants();
    int compared = 0;
    for (int i = 0; i < 40; ++i) {
      // One dense inflow ending just before a run, or inside it: it
      // arrives at 20 times the link's capacity, so the backlog waits
      // across saturated breakpoints with no inflow left.
      const auto& run = runs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(runs.size()) - 1))];
      const bool before_run = rng.bernoulli(0.5);
      const double end = before_run
                             ? run.first - rng.uniform_real(0.0, 0.5)
                             : rng.uniform_real(run.first, run.second);
      const double length = rng.uniform_real(0.5, 3.0);
      RateProfile inflow;
      inflow.append(end - length, end, 20.0 * capacity);
      const std::uint64_t before = link.forward_steps();
      compared += expect_equal_forward(link, inflow, "saturated tail");
      if (before_run) {
        EXPECT_GT(link.forward_steps() - before, 40u)
            << "the backlog should cross the whole run";
      }
      compared += expect_equal_forward(
          link, shifted(inflow, rng.uniform_real(0.0, 2.0)),
          "saturated tail, shifted");
    }
    EXPECT_EQ(compared, 80);
  }
}

TEST_P(BandwidthForwardProperty, GappedInflowsAcrossSaturatedRuns) {
  for (const double base : {0.0, 1.0e6}) {
    Rng rng(GetParam() * 15485863 + static_cast<std::uint32_t>(base > 0.0));
    BandwidthTimeline link(rng.uniform_real(1.0, 8.0));
    const std::vector<std::pair<double, double>> runs =
        book_saturated_runs(link, base + 10.0, 8, 25, rng);
    link.check_invariants();
    int compared = 0;
    for (int i = 0; i < 40; ++i) {
      // Inflow segments in the capacity stretches between runs (or just
      // inside a run's edge), so each gap spans a saturated run while
      // more inflow is still to come.
      RateProfile inflow;
      const auto first = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(runs.size()) - 3));
      for (std::size_t r = first; r + 1 < runs.size() && r < first + 4;
           ++r) {
        const double lo = runs[r].second - rng.uniform_real(0.0, 0.3);
        const double hi = std::min(runs[r + 1].first,
                                   lo + rng.uniform_real(0.2, 1.5));
        if (hi > lo + 10 * kEps) {
          inflow.append(lo, hi, rng.uniform_real(1.0, 30.0));
        }
      }
      compared += expect_equal_forward(link, inflow, "gapped inflow");
    }
    EXPECT_EQ(compared, 40);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthForwardProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace edgesched::timeline
