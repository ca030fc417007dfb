#include "timeline/bandwidth_timeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace edgesched::timeline {

namespace {
constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

BandwidthTimeline::BandwidthTimeline(double capacity) : capacity_(capacity) {
  throw_if(capacity <= 0.0,
           "BandwidthTimeline: capacity must be positive");
  breakpoints_.emplace_back(0.0, capacity);
}

std::size_t BandwidthTimeline::segment_index(double t) const {
  EDGESCHED_ASSERT(t >= -kEps);
  // Last breakpoint with start <= t.
  const auto it = std::upper_bound(
      breakpoints_.begin(), breakpoints_.end(), t,
      [](double value, const std::pair<double, double>& bp) {
        return value < bp.first;
      });
  EDGESCHED_ASSERT(it != breakpoints_.begin());
  return static_cast<std::size_t>(it - breakpoints_.begin()) - 1;
}

double BandwidthTimeline::remaining_at(double t) const {
  return breakpoints_[segment_index(t)].second;
}

void BandwidthTimeline::transfer_from(double ready_time, double volume,
                                      RateProfile& out) const {
  EDGESCHED_ASSERT_MSG(volume > 0.0, "transfer volume must be positive");
  out.clear();
  double t = std::max(ready_time, 0.0);
  double sent = 0.0;
  // Completion is volume-relative: at large schedule times an absolute
  // residual below one ulp of t can never be transferred.
  const double vol_eps = kEps * std::max(1.0, volume);
  std::size_t i = segment_index(t);
  while (sent < volume - vol_eps) {
    const double seg_end =
        (i + 1 < breakpoints_.size()) ? breakpoints_[i + 1].first : kInf;
    const double rate = breakpoints_[i].second;
    if (rate > kEps) {
      const double t_done = t + (volume - sent) / rate;
      if (t_done <= t) {
        break;  // residual below the representable time grid
      }
      const double t_end = std::min(seg_end, t_done);
      // Sub-epsilon slivers (boundary float noise) would violate the
      // profile's segment invariants; their volume still counts so the
      // sweep's fluid accounting stays exact (the profile drifts by at
      // most rate·eps per boundary, far below the validator tolerance).
      if (t_end - t > kEps) {
        out.append(t, t_end, rate);
      }
      sent += rate * (t_end - t);
      t = t_end;
      if (t_done <= seg_end) {
        break;
      }
    } else {
      EDGESCHED_ASSERT_MSG(seg_end < kInf,
                           "tail of a bandwidth timeline must have capacity");
      t = seg_end;
    }
    ++i;
  }
}

void BandwidthTimeline::forward(RateProfileView inflow,
                                RateProfile& out) const {
  const double volume = inflow.volume();
  EDGESCHED_ASSERT_MSG(volume > kEps, "forward: empty inflow");
  const std::span<const RateSegment> in = inflow.segments();
  const std::size_t num_in = in.size();
  const std::size_t num_bw = breakpoints_.size();
  // An inflow segment's start is a sweep event unless it abuts the
  // previous segment's end (the same rule as RateProfile::breakpoints()).
  const auto starts_event = [&in](std::size_t j) {
    return j == 0 || in[j - 1].end < in[j].start - kEps;
  };

  out.clear();
  double t = inflow.start_time();
  double sent = 0.0;
  double arrived = 0.0;
  // Completion and backlog tests are volume-relative: a residual backlog
  // of ~1e-9 at t ~ 1e6 implies a drain step below one ulp of t, which
  // cannot advance the sweep — such residuals are float noise, not data.
  const double vol_eps = kEps * std::max(1.0, volume);
  // Every iteration either transfers volume or advances to the next
  // breakpoint, so the sweep is linear in the breakpoints it crosses; the
  // guard is purely defensive.
  std::size_t in_events = 0;
  for (std::size_t j = 0; j < num_in; ++j) {
    in_events += starts_event(j) ? 2 : 1;
  }
  std::size_t guard = 8 * (in_events + num_bw) + 64;

  // Forward-only cursors, placed by one binary search. `t` and the probe
  // midpoint never decrease, and inflow ends and link breakpoints are
  // sorted, so each cursor lands on the index a fresh binary search (or
  // linear scan) would return. "After t" compares exactly: progress may
  // be infinitesimal near a breakpoint, but each one is crossed once.
  //   in_evt/in_at_end: next inflow event strictly after t
  //   in_seg:           first inflow segment whose end exceeds probe_t
  //   bw_next:          first link breakpoint strictly after t
  //   bw_cap:           last link breakpoint at or before probe_t
  std::size_t in_evt = 0;
  bool in_at_end = false;
  std::size_t in_seg = 0;
  std::size_t bw_cap = segment_index(t);
  std::size_t bw_next = bw_cap + 1;

  while (sent < volume - vol_eps) {
    EDGESCHED_ASSERT_MSG(guard-- > 0, "forward sweep failed to converge");
    ++forward_steps_;
    while (in_evt < num_in) {
      if (!in_at_end) {
        if (starts_event(in_evt) && in[in_evt].start > t) {
          break;
        }
        in_at_end = true;
      } else {
        if (in[in_evt].end > t) {
          break;
        }
        ++in_evt;
        in_at_end = false;
      }
    }
    while (bw_next < num_bw && breakpoints_[bw_next].first <= t) {
      ++bw_next;
    }
    const double in_next =
        in_evt < num_in ? (in_at_end ? in[in_evt].end : in[in_evt].start)
                        : kInf;
    const double bw_at = bw_next < num_bw ? breakpoints_[bw_next].first : kInf;
    const double t_next = std::min(in_next, bw_at);
    // Rates are constant on (t, t_next); probing the midpoint keeps the
    // rate lookups consistent with the breakpoint lookup even when t sits
    // a floating-point hair away from a boundary.
    const double probe_t = (t_next < kInf) ? 0.5 * (t + t_next) : t + 1.0;
    while (in_seg < num_in && probe_t >= in[in_seg].end) {
      ++in_seg;
    }
    const double r_in =
        (in_seg < num_in && probe_t >= in[in_seg].start) ? in[in_seg].rate
                                                          : 0.0;
    while (bw_cap + 1 < num_bw && breakpoints_[bw_cap + 1].first <= probe_t) {
      ++bw_cap;
    }
    const double r_cap = breakpoints_[bw_cap].second;
    const double backlog = arrived - sent;
    if (backlog > vol_eps && r_cap > kEps) {
      if (t + backlog / r_cap <= t) {
        // The whole backlog drains in less than one ulp of t: it is float
        // noise below the representable time grid. Absorb it; if all data
        // has arrived the transfer is complete.
        if (arrived >= volume - vol_eps) {
          break;
        }
        sent = arrived;
        continue;
      }
      double t_end = t_next;
      if (r_cap > r_in + kEps) {
        // Backlog drains; splitting at the drain point keeps the output
        // rate exact within each stretch.
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
      // Backlog but no capacity: wait for the next event.
      EDGESCHED_ASSERT_MSG(t_next < kInf,
                           "no capacity and no further events");
      arrived += r_in * (t_next - t);
      t = t_next;
      if (in_evt == num_in) {
        // The inflow has fully arrived: r_in is 0 from here on, so every
        // further step over a saturated breakpoint adds 0 to `arrived`
        // and only moves t to the next breakpoint. Cross them in one
        // tight loop, with the cursors' exact rules, and stop where the
        // next step would find capacity; each counts as a step.
        std::size_t at = bw_next;  // t == breakpoints_[at].first
        while (at + 1 < num_bw) {
          const double seg_end = breakpoints_[at + 1].first;
          const double mid = 0.5 * (t + seg_end);
          const std::size_t cap = seg_end <= mid ? at + 1 : at;
          if (breakpoints_[cap].second > kEps) {
            break;
          }
          EDGESCHED_ASSERT_MSG(guard-- > 0,
                               "forward sweep failed to converge");
          ++forward_steps_;
          t = seg_end;
          ++at;
        }
      }
    } else {
      const double rate = std::min(r_cap, r_in);
      if (rate > kEps) {
        const double t_done = t + (volume - sent) / rate;
        if (t_done <= t) {
          break;  // residual below the representable time grid
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
    // Clamp accumulated float error in the inflow integral.
    arrived = std::min(arrived, volume);
  }
}

void BandwidthTimeline::consume(RateProfileView profile) {
  const std::span<const RateSegment> segments = profile.segments();
  if (segments.empty()) {
    return;
  }
  // One cursor over the breakpoints, placed by one binary search. Segment
  // boundaries only move forward (up to the profile's tolerance, which
  // the cursor walks back over), so each boundary lands on the last
  // breakpoint at or before it, as a fresh search would. A boundary
  // within kEps after that breakpoint reuses it; any other splits it.
  std::size_t at = segment_index(segments.front().start);
  const auto boundary = [this, &at](double t) {
    while (at > 0 && breakpoints_[at].first > t) {
      --at;
    }
    while (at + 1 < breakpoints_.size() && breakpoints_[at + 1].first <= t) {
      ++at;
    }
    if (std::abs(breakpoints_[at].first - t) > kEps) {
      breakpoints_.insert(
          breakpoints_.begin() + static_cast<std::ptrdiff_t>(at) + 1,
          {t, breakpoints_[at].second});
      ++at;
    }
    return at;
  };
  for (const RateSegment& seg : segments) {
    const std::size_t first = boundary(seg.start);
    const std::size_t last = boundary(seg.end);
    for (std::size_t i = first; i < last; ++i) {
      double& remaining = breakpoints_[i].second;
      EDGESCHED_ASSERT_MSG(remaining >= seg.rate - 1e-6,
                           "profile exceeds remaining bandwidth");
      remaining = std::max(0.0, remaining - seg.rate);
    }
  }
}

BandwidthTimeline::Probe BandwidthTimeline::probe(double t,
                                                 double volume) const {
  EDGESCHED_ASSERT_MSG(volume > 0.0, "volume must be positive");
  ++probe_count_;
  double at = std::max(t, 0.0);
  std::size_t i = segment_index(at);
  // A saturated stretch moves no volume, so both answers skip it alike:
  // the finish walk resumes where the first flow starts.
  while (breakpoints_[i].second <= kEps) {
    EDGESCHED_ASSERT_MSG(i + 1 < breakpoints_.size(),
                         "tail of a bandwidth timeline must have capacity");
    at = breakpoints_[i + 1].first;
    ++i;
  }
  const double first_flow = at;
  double sent = 0.0;
  while (true) {
    const double seg_end =
        (i + 1 < breakpoints_.size()) ? breakpoints_[i + 1].first : kInf;
    const double rate = breakpoints_[i].second;
    if (rate > kEps) {
      const double t_done = at + (volume - sent) / rate;
      if (t_done <= seg_end) {
        return Probe{first_flow, t_done};
      }
      sent += rate * (seg_end - at);
    } else {
      EDGESCHED_ASSERT_MSG(seg_end < kInf,
                           "tail of a bandwidth timeline must have capacity");
    }
    at = seg_end;
    ++i;
  }
}

void BandwidthTimeline::check_invariants() const {
  EDGESCHED_ASSERT(!breakpoints_.empty());
  EDGESCHED_ASSERT(breakpoints_.front().first == 0.0);
  for (std::size_t i = 0; i < breakpoints_.size(); ++i) {
    EDGESCHED_ASSERT(breakpoints_[i].second >= 0.0);
    EDGESCHED_ASSERT(breakpoints_[i].second <= capacity_ + 1e-6);
    if (i > 0) {
      EDGESCHED_ASSERT(breakpoints_[i - 1].first < breakpoints_[i].first);
    }
  }
}

}  // namespace edgesched::timeline
