#include "timeline/processor_timeline.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "timeline/tolerance.hpp"

namespace edgesched::timeline {

double ProcessorTimeline::start_from(std::size_t first, double ready_time,
                                     double duration) const {
  EDGESCHED_ASSERT_MSG(duration >= 0.0, "task duration must be >= 0");
  ++query_stats_.queries;
  // Walk the idle intervals in time order from gap `first`: before slot
  // `first`, between consecutive slots, after the last slot (unbounded).
  double gap_start = (first == 0) ? 0.0 : slots_[first - 1].finish;
  for (std::size_t i = first; i <= slots_.size(); ++i) {
    ++query_stats_.gap_steps;
    const double gap_end = (i < slots_.size())
                               ? slots_[i].start
                               : std::numeric_limits<double>::infinity();
    const double start = std::max(gap_start, ready_time);
    if (start + duration <= gap_end + time_eps(gap_end)) {
      return start;
    }
    if (i < slots_.size()) {
      gap_start = slots_[i].finish;
    }
  }
  EDGESCHED_ASSERT_MSG(false, "unreachable: open tail always admits task");
  return 0.0;
}

double ProcessorTimeline::earliest_start(double ready_time,
                                         double duration) const {
  // Gaps ending before min_finish - 2 eps cannot admit the task: their
  // admission cap tops out below the earliest possible finish. Binary
  // search past them (the skip bound LinkTimeline::first_candidate_gap
  // uses), then walk the rest in gap order.
  const double min_finish = ready_time + duration;
  const double threshold = min_finish - 2.0 * time_eps(min_finish);
  const auto first = std::lower_bound(
      slots_.begin(), slots_.end(), threshold,
      [](const TaskSlot& slot, double value) { return slot.start < value; });
  return start_from(static_cast<std::size_t>(first - slots_.begin()),
                    ready_time, duration);
}

double ProcessorTimeline::earliest_start_linear(double ready_time,
                                                double duration) const {
  return start_from(0, ready_time, duration);
}

void ProcessorTimeline::commit(dag::TaskId task, double start,
                               double duration) {
  const double finish = start + duration;
  // Order by (start, finish): zero-length slots sharing a start (dummy
  // entry/exit tasks, recovery re-staging stubs) sort before a longer
  // slot beginning at the same instant, so each side passes its
  // neighbour check instead of tripping the other's.
  const auto insert_at = std::upper_bound(
      slots_.begin(), slots_.end(), std::make_pair(start, finish),
      [](const std::pair<double, double>& value, const TaskSlot& slot) {
        if (value.first != slot.start) {
          return value.first < slot.start;
        }
        return value.second < slot.finish;
      });
  // Placement must not overlap its neighbours.
  if (insert_at != slots_.begin()) {
    EDGESCHED_ASSERT_MSG(
        std::prev(insert_at)->finish <= start + time_eps(start),
                         "task overlaps its predecessor on the processor");
  }
  if (insert_at != slots_.end()) {
    EDGESCHED_ASSERT_MSG(finish <= insert_at->start + time_eps(finish),
                         "task overlaps its successor on the processor");
  }
  slots_.insert(insert_at, TaskSlot{start, finish, task});
}

void ProcessorTimeline::check_invariants() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const TaskSlot& slot = slots_[i];
    EDGESCHED_ASSERT_MSG(slot.start <= slot.finish,
                         "slot start after finish");
    if (i > 0) {
      // Starts sort exactly (the hint's lower_bound needs it); finishes
      // may overrun the next start within the commit tolerance.
      const TaskSlot& prev = slots_[i - 1];
      EDGESCHED_ASSERT_MSG(
          prev.start <= slot.start &&
              prev.finish <= slot.start + time_eps(prev.finish),
          "slots overlap or are unsorted");
    }
  }
}

}  // namespace edgesched::timeline
