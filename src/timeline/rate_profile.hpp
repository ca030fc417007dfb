// Piecewise-constant transfer-rate profiles.
//
// BBSA (§5) spreads one edge's communication over multiple time slots with
// varying bandwidth shares. A rate profile records the resulting absolute
// transfer rate (volume per time, i.e. s(L)·br) of one edge on one link as
// a sorted sequence of disjoint positive-rate segments. The fluid
// forwarding rules of the paper (formulas (4)/(5)) become two cumulative
// constraints over these profiles: outflow on the next link can never
// exceed what has arrived, nor the link's remaining capacity.
//
// The profile math lives in `RateProfileView`, over a span of segments:
// a `Schedule` stores its profiles flat and hands out views, and the
// owning `RateProfile` the bandwidth timeline builds delegates to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace edgesched::timeline {

/// One constant-rate stretch of a transfer.
struct RateSegment {
  double start = 0.0;
  double end = 0.0;
  double rate = 0.0;  ///< absolute rate (volume per unit time), > 0
};

/// A read-only profile over segments stored elsewhere.
class RateProfileView {
 public:
  RateProfileView() = default;
  explicit RateProfileView(std::span<const RateSegment> segments) noexcept
      : segments_(segments) {}

  [[nodiscard]] std::span<const RateSegment> segments() const {
    return segments_;
  }
  [[nodiscard]] bool empty() const { return segments_.empty(); }

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

 private:
  std::span<const RateSegment> segments_;
};

/// Consecutive profiles stored flat: profile i is the segments
/// `[bounds[i], bounds[i + 1])` of `segments`.
class RateProfileList {
 public:
  RateProfileList() = default;
  RateProfileList(std::span<const RateSegment> segments,
                  std::span<const std::uint32_t> bounds) noexcept
      : segments_(segments), bounds_(bounds) {}

  [[nodiscard]] std::size_t size() const {
    return bounds_.empty() ? 0 : bounds_.size() - 1;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] RateProfileView back() const { return (*this)[size() - 1]; }
  [[nodiscard]] RateProfileView operator[](std::size_t i) const {
    EDGESCHED_ASSERT(i < size());
    return RateProfileView(
        segments_.subspan(bounds_[i], bounds_[i + 1] - bounds_[i]));
  }

 private:
  std::span<const RateSegment> segments_;
  std::span<const std::uint32_t> bounds_;
};

/// An owning profile, built segment by segment.
class RateProfile {
 public:
  /// Appends a segment; must begin at or after the previous segment's end.
  /// Adjacent segments with equal rates are merged.
  void append(double start, double end, double rate);

  /// Drops every segment, keeping the capacity for reuse.
  void clear() noexcept { segments_.clear(); }

  [[nodiscard]] RateProfileView view() const {
    return RateProfileView(segments_);
  }
  /// Implicit, so an owning profile passes wherever a view is read.
  operator RateProfileView() const noexcept { return view(); }

  // The view's queries, delegated.
  [[nodiscard]] std::span<const RateSegment> segments() const {
    return segments_;
  }
  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] double volume() const { return view().volume(); }
  [[nodiscard]] double start_time() const { return view().start_time(); }
  [[nodiscard]] double finish_time() const { return view().finish_time(); }
  [[nodiscard]] double cumulative(double t) const {
    return view().cumulative(t);
  }
  [[nodiscard]] std::vector<double> breakpoints() const {
    return view().breakpoints();
  }

  /// Verifies ordering and positivity invariants.
  void check_invariants() const;

 private:
  std::vector<RateSegment> segments_;
};

}  // namespace edgesched::timeline
