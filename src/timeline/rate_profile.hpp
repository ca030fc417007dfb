// Piecewise-constant transfer-rate profiles.
//
// BBSA (§5) spreads one edge's communication over multiple time slots with
// varying bandwidth shares. A `RateProfile` records the resulting absolute
// transfer rate (volume per time, i.e. s(L)·br) of one edge on one link as
// a sorted sequence of disjoint positive-rate segments. The fluid
// forwarding rules of the paper (formulas (4)/(5)) become two cumulative
// constraints over these profiles: outflow on the next link can never
// exceed what has arrived, nor the link's remaining capacity.
#pragma once

#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace edgesched::timeline {

/// One constant-rate stretch of a transfer.
struct RateSegment {
  double start = 0.0;
  double end = 0.0;
  double rate = 0.0;  ///< absolute rate (volume per unit time), > 0
};

class RateProfile {
 public:
  /// Appends a segment; must begin at or after the previous segment's end.
  /// Adjacent segments with equal rates are merged.
  void append(double start, double end, double rate);

  [[nodiscard]] const std::vector<RateSegment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }

  /// Total transferred volume.
  [[nodiscard]] double volume() const noexcept;

  /// Time the first byte moves; 0 for an empty profile.
  [[nodiscard]] double start_time() const noexcept {
    return segments_.empty() ? 0.0 : segments_.front().start;
  }
  /// Time the last byte moves; 0 for an empty profile.
  [[nodiscard]] double finish_time() const noexcept {
    return segments_.empty() ? 0.0 : segments_.back().end;
  }

  /// Volume transferred in [start_time, t].
  [[nodiscard]] double cumulative(double t) const noexcept;

  /// Sorted distinct segment boundaries (for sweep-line algorithms).
  [[nodiscard]] std::vector<double> breakpoints() const;

  /// The same profile displaced by `delta` time units (hop delays).
  [[nodiscard]] RateProfile shifted(double delta) const;

  /// Verifies ordering and positivity invariants.
  void check_invariants() const;

 private:
  std::vector<RateSegment> segments_;
};

}  // namespace edgesched::timeline
