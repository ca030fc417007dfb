#include "timeline/link_timeline.hpp"

#include <algorithm>
#include <limits>

#include "timeline/tolerance.hpp"

namespace edgesched::timeline {

namespace {
/// Minimum slot-arena capacity reserved on the first commit. Timelines
/// live by the hundred inside a network state (one per contention
/// domain) and by the thousand across a sweep; skipping the 1→2→4→8
/// realloc ramp is a measurable allocation saving.
constexpr std::size_t kArenaBlock = 16;
}  // namespace

std::size_t LinkTimeline::first_candidate_gap(double min_finish) const {
  // A gap ending at slots_[i].start admits the edge only if
  //   finish <= gap_end + time_eps(finish), with finish >= min_finish.
  // For gap_end < min_finish - 2*eps(min_finish) both cannot hold (the
  // relative eps of any feasible finish in such a gap is bounded by
  // eps(min_finish)), so those gaps are skipped wholesale. Gap ends are
  // non-decreasing (sorted, disjoint slots), hence one lower_bound.
  const double threshold = min_finish - 2.0 * time_eps(min_finish);
  const auto it =
      std::lower_bound(slots_.begin(), slots_.end(), threshold,
                       [](const TimeSlot& slot, double t) {
                         return slot.start < t;
                       });
  return static_cast<std::size_t>(it - slots_.begin());
}

Placement LinkTimeline::probe_from(std::size_t first, double t_es_in,
                                   double t_f_min, double duration) const {
  // Walk the idle intervals in time order from gap `first`: before slot
  // `first`, between consecutive slots, after the last slot (unbounded).
  // The slot start is computed first so that earliest_start <= start
  // holds exactly, with no rounding from (earliest + duration) - duration.
  double gap_start = (first == 0) ? 0.0 : slots_[first - 1].finish;
  for (std::size_t i = first; i <= slots_.size(); ++i) {
    ++probe_stats_.probe_gap_steps;
    const double gap_end = (i < slots_.size())
                               ? slots_[i].start
                               : std::numeric_limits<double>::infinity();
    const double earliest = std::max(gap_start, t_es_in);
    const double start = std::max(earliest, t_f_min - duration);
    const double finish = start + duration;
    if (finish <= gap_end + time_eps(finish)) {
      return Placement{earliest, start, finish, i};
    }
    if (i < slots_.size()) {
      gap_start = slots_[i].finish;
    }
  }
  EDGESCHED_ASSERT_MSG(false, "unreachable: open tail always admits edge");
  return {};
}

Placement LinkTimeline::probe_basic(double t_es_in, double t_f_min,
                                    double duration,
                                    double skip_before) const {
  EDGESCHED_ASSERT_MSG(duration > 0.0, "edge duration must be positive");
  ++probe_stats_.basic_probes;
  // Gap-index fast path: no feasible finish can precede
  // max(t_es_in + duration, t_f_min), so start the first-fit walk at the
  // first gap whose end reaches that bound (binary search) instead of at
  // the head of the timeline. Gaps ending before the caller's
  // `skip_before` admit nothing either, so the bound may rise to it (the
  // search's tolerance slack only walks more gaps, never fewer).
  const double min_finish = std::max(
      std::max(t_es_in, t_f_min - duration) + duration, skip_before);
  return probe_from(first_candidate_gap(min_finish), t_es_in, t_f_min,
                    duration);
}

Placement LinkTimeline::probe_basic_linear(double t_es_in, double t_f_min,
                                           double duration) const {
  EDGESCHED_ASSERT_MSG(duration > 0.0, "edge duration must be positive");
  ++probe_stats_.basic_probes;
  return probe_from(0, t_es_in, t_f_min, duration);
}

void LinkTimeline::commit(const Placement& placement, dag::EdgeId edge,
                          std::uint32_t hop) {
  EDGESCHED_ASSERT(placement.position <= slots_.size());
  EDGESCHED_ASSERT(placement.start <=
                   placement.finish + time_eps(placement.finish));
  if (slots_.capacity() == slots_.size()) {
    // Arena growth: jump straight to a block-sized capacity so many
    // short timelines never reallocate more than once.
    slots_.reserve(std::max(kArenaBlock, slots_.size() * 2));
  }
  slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(
                                     placement.position),
                TimeSlot{placement.earliest_start, placement.start,
                         placement.finish, edge, hop, kUnsetDeferral});
  // Local invariant check: an insertion can only break ordering or
  // disjointness against its immediate neighbours, so O(1) suffices here
  // (the full-walk `check_invariants` stays available to tests and the
  // schedule validator).
  const std::size_t at = placement.position;
  EDGESCHED_ASSERT_MSG(
      placement.earliest_start <=
          placement.start + time_eps(placement.start),
      "slot earliest_start after start");
  EDGESCHED_ASSERT_MSG(
      at == 0 || slots_[at - 1].finish <=
                     placement.start + time_eps(placement.start),
      "inserted slot overlaps its predecessor");
  EDGESCHED_ASSERT_MSG(
      at + 1 == slots_.size() ||
          placement.finish <=
              slots_[at + 1].start + time_eps(slots_[at + 1].start),
      "inserted slot overlaps its successor");
}

std::size_t LinkTimeline::find_slot(dag::EdgeId edge, std::uint32_t hop,
                                    double start, std::size_t hint) const {
  const auto occupies = [&](std::size_t i) {
    return slots_[i].edge == edge && slots_[i].hop == hop;
  };
  if (hint < slots_.size() && occupies(hint)) {
    return hint;
  }
  // Starts are sorted up to the timeline tolerance (a slot may begin
  // time_eps before its predecessor's finish), so search a window of
  // twice that around `start`; a slot outside it can only follow a run of
  // slots shorter than the tolerance, which the full walk still finds.
  const double tolerance = 2.0 * time_eps(start);
  const auto it =
      std::lower_bound(slots_.begin(), slots_.end(), start - tolerance,
                       [](const TimeSlot& slot, double t) {
                         return slot.start < t;
                       });
  for (std::size_t i = static_cast<std::size_t>(it - slots_.begin());
       i < slots_.size() && slots_[i].start <= start + tolerance; ++i) {
    if (occupies(i)) {
      return i;
    }
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (occupies(i)) {
      return i;
    }
  }
  return slots_.size();
}

void LinkTimeline::erase(std::size_t position) {
  EDGESCHED_ASSERT(position < slots_.size());
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(position));
}

double LinkTimeline::busy_time() const noexcept {
  double busy = 0.0;
  for (const TimeSlot& slot : slots_) {
    busy += slot.finish - slot.start;
  }
  return busy;
}

void LinkTimeline::shift_slot(std::size_t index, double new_earliest_start,
                              double new_start, double new_finish) {
  EDGESCHED_ASSERT(index < slots_.size());
  TimeSlot& slot = slots_[index];
  EDGESCHED_ASSERT_MSG(new_start >= slot.start - time_eps(slot.start),
                       "slots may only be deferred, never advanced");
  slot.earliest_start = new_earliest_start;
  slot.start = new_start;
  slot.finish = new_finish;
}

void LinkTimeline::check_invariants() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const TimeSlot& slot = slots_[i];
    EDGESCHED_ASSERT_MSG(slot.start <= slot.finish + time_eps(slot.finish),
                         "slot start after finish");
    EDGESCHED_ASSERT_MSG(
        slot.earliest_start <= slot.start + time_eps(slot.start),
                         "slot earliest_start after start");
    if (i > 0) {
      EDGESCHED_ASSERT_MSG(
          slots_[i - 1].finish <= slot.start + time_eps(slot.start),
                           "slots overlap or are unsorted");
    }
  }
}

}  // namespace edgesched::timeline
