#include "timeline/rate_profile.hpp"

#include <algorithm>
#include <cmath>

namespace edgesched::timeline {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

void RateProfile::append(double start, double end, double rate) {
  EDGESCHED_ASSERT_MSG(end > start + kEps, "empty or inverted rate segment");
  EDGESCHED_ASSERT_MSG(rate > kEps, "rate segments must be positive");
  if (!segments_.empty()) {
    RateSegment& last = segments_.back();
    EDGESCHED_ASSERT_MSG(start >= last.end - kEps,
                         "rate segments must be appended in time order");
    if (std::abs(start - last.end) <= kEps &&
        std::abs(rate - last.rate) <= kEps) {
      last.end = end;  // merge contiguous equal-rate stretches
      return;
    }
  }
  segments_.push_back(RateSegment{start, end, rate});
}

double RateProfileView::volume() const noexcept {
  double total = 0.0;
  for (const RateSegment& seg : segments_) {
    total += seg.rate * (seg.end - seg.start);
  }
  return total;
}

double RateProfileView::cumulative(double t) const noexcept {
  double total = 0.0;
  for (const RateSegment& seg : segments_) {
    if (t <= seg.start) {
      break;
    }
    total += seg.rate * (std::min(t, seg.end) - seg.start);
  }
  return total;
}

std::vector<double> RateProfileView::breakpoints() const {
  std::vector<double> points;
  points.reserve(segments_.size() * 2);
  for (const RateSegment& seg : segments_) {
    if (points.empty() || points.back() < seg.start - kEps) {
      points.push_back(seg.start);
    }
    points.push_back(seg.end);
  }
  return points;
}

void RateProfile::check_invariants() const {
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    EDGESCHED_ASSERT(segments_[i].end > segments_[i].start);
    EDGESCHED_ASSERT(segments_[i].rate > 0.0);
    if (i > 0) {
      EDGESCHED_ASSERT(segments_[i - 1].end <= segments_[i].start + kEps);
    }
  }
}

}  // namespace edgesched::timeline
