// Bandwidth-sharing link timeline — the schedulable state of one
// contention domain under BBSA (§5).
//
// Where the exclusive `LinkTimeline` books whole intervals, this timeline
// tracks the *remaining* transfer rate over time as a piecewise-constant
// function starting at the full link speed. An idle interval is just a
// stretch with 100 % remaining rate (the paper treats both uniformly).
// Edges claim rate profiles; overlapping transfers share the link, and the
// paper's formulas (4)/(5) are realised by the fluid `forward` sweep:
// outflow on this link can exceed neither its remaining capacity nor the
// cumulative inflow from the previous link.
#pragma once

#include <cstdint>
#include <vector>

#include "timeline/rate_profile.hpp"
#include "util/error.hpp"

namespace edgesched::timeline {

class BandwidthTimeline {
 public:
  /// `capacity` is the link's transfer speed s(L) > 0.
  explicit BandwidthTimeline(double capacity);

  [[nodiscard]] double capacity() const noexcept { return capacity_; }

  /// Remaining rate at time t.
  [[nodiscard]] double remaining_at(double t) const;

  /// Source-side transfer: all `volume` is available at `ready_time`; the
  /// edge greedily uses every drop of remaining bandwidth from then on.
  /// Writes the transfer profile into `out` (cleared first, its capacity
  /// reused); does not commit.
  void transfer_from(double ready_time, double volume,
                     RateProfile& out) const;

  /// Forwarding transfer: moves `inflow.volume()` across this link subject
  /// to cum_out(t) <= cum_in(t) (data must have arrived on the previous
  /// link) and rate_out(t) <= remaining(t). Greedy, hence earliest-finish.
  /// Writes the transfer profile into `out` (cleared first; it must not
  /// be `inflow`'s storage); does not commit. Costs one binary
  /// search plus time linear in the inflow segments and the link
  /// breakpoints the sweep crosses, not in the whole link timeline.
  /// Saturated breakpoints after the inflow has fully arrived are
  /// crossed in a tight loop that changes no value.
  void forward(RateProfileView inflow, RateProfile& out) const;

  /// Books a probed profile: subtracts it from the remaining rate.
  /// The profile must respect the current remaining capacity. One binary
  /// search, then one cursor over the breakpoints the profile covers.
  void consume(RateProfileView profile);

  /// The routing probe for BBSA, from one breakpoint lookup: the first
  /// time >= t with positive remaining rate, and the earliest time by
  /// which `volume` could finish if sent from `t` using all remaining
  /// bandwidth.
  struct Probe {
    double first_flow = 0.0;
    double finish = 0.0;
  };
  [[nodiscard]] Probe probe(double t, double volume) const;

  /// Routing probes answered (`probe` calls). Plain tally — a timeline is
  /// owned by one single-threaded scheduling state, which batches the sum
  /// into the global counter on destruction.
  [[nodiscard]] std::uint64_t probe_count() const noexcept {
    return probe_count_;
  }
  /// Iterations of the `forward` sweep, tallied like `probe_count`.
  [[nodiscard]] std::uint64_t forward_steps() const noexcept {
    return forward_steps_;
  }

  /// Piecewise representation, for tests: (start, remaining) pairs; each
  /// entry holds until the next entry's start, the last one forever.
  [[nodiscard]] const std::vector<std::pair<double, double>>& breakpoints()
      const noexcept {
    return breakpoints_;
  }

  /// Verifies representation invariants.
  void check_invariants() const;

 private:
  /// Index of the breakpoint segment containing time t.
  [[nodiscard]] std::size_t segment_index(double t) const;

  double capacity_;
  /// Sorted (start, remaining) pairs covering [0, inf); starts strictly
  /// increase and the first entry is at t = 0.
  std::vector<std::pair<double, double>> breakpoints_;
  mutable std::uint64_t probe_count_ = 0;
  mutable std::uint64_t forward_steps_ = 0;
};

}  // namespace edgesched::timeline
