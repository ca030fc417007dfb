#include "timeline/optimal_insertion.hpp"

#include <algorithm>
#include <cmath>

#include "timeline/tolerance.hpp"

namespace edgesched::timeline {

namespace {

/// The slot's stored Lemma-2 slack, clamped at 0.
double deferral(const TimeSlot& slot) {
  EDGESCHED_ASSERT_MSG(!std::isnan(slot.deferral),
                       "occupied slot references an unscheduled edge");
  return std::max(0.0, slot.deferral);
}

void probe_impl(const LinkTimeline& timeline, double t_es_in,
                double t_f_min, double duration, bool early_exit,
                OptimalPlacement& best) {
  EDGESCHED_ASSERT_MSG(duration > 0.0, "edge duration must be positive");
  timeline.count_optimal_probe();
  const std::vector<TimeSlot>& slots = timeline.slots();
  const std::size_t count = slots.size();

  // Fallback: append after the last slot — always feasible. Start is
  // computed first so earliest_start <= start holds exactly.
  {
    const double earliest = std::max(timeline.last_finish(), t_es_in);
    const double start = std::max(earliest, t_f_min - duration);
    best.placement = Placement{earliest, start, start + duration, count};
  }
  best.shifts.clear();

  // No feasible finish anywhere can precede this bound (it is the finish
  // of the head-most conceivable gap). The slack-exhaustion early exit
  // compares effective deadlines against it.
  const double min_finish =
      std::max(t_es_in, t_f_min - duration) + duration;

  // Tail-to-head scan (formula (2)): accum is the largest accumulated
  // deferral available at the current slot; overwriting `best` on every
  // feasible position leaves the head-most — and therefore earliest —
  // one (Theorem 1).
  double accum = 0.0;
  std::uint64_t steps = 0;
  for (std::size_t i = count; i-- > 0;) {
    const TimeSlot& slot = slots[i];
    if (early_exit && i + 1 < count) {
      // Slack exhaustion: even with unbounded own slack, this slot's
      // effective deadline cannot exceed the tail's accumulated slack
      // plus the gap just crossed. Deadlines only shrink head-wards
      // (slot.start + accum is non-increasing as i decreases), so once
      // the bound drops below the minimum feasible finish no head-ward
      // position can admit the edge; the append fallback or a feasible
      // position already found stands.
      const double deadline_bound =
          slot.start + accum + (slots[i + 1].start - slot.finish);
      if (deadline_bound + 2.0 * time_eps(min_finish) < min_finish) {
        break;
      }
    }
    ++steps;
    const double dt = deferral(slot);
    if (i + 1 == count) {
      accum = dt;
    } else {
      accum = std::min(dt, accum + (slots[i + 1].start - slot.finish));
    }
    const double gap_start = (i == 0) ? 0.0 : slots[i - 1].finish;
    const double earliest = std::max(gap_start, t_es_in);
    const double start = std::max(earliest, t_f_min - duration);
    const double finish = start + duration;
    if (finish <= slot.start + accum + time_eps(finish)) {
      best.placement = Placement{earliest, start, finish, i};
    }
  }
  timeline.count_optimal_scan_steps(steps);

  // Cascade of displaced slots behind the chosen position.
  double frontier = best.placement.finish;
  for (std::size_t j = best.placement.position; j < count; ++j) {
    const TimeSlot& slot = slots[j];
    if (slot.start + time_eps(slot.start) >= frontier) {
      break;
    }
    const double delta = frontier - slot.start;
    EDGESCHED_ASSERT_MSG(
        delta <= deferral(slot) + time_eps(frontier),
        "cascade exceeded a slot's deferral slack");
    best.shifts.push_back(SlotShift{j, slot.edge,
                                    slot.earliest_start + delta,
                                    slot.start + delta,
                                    slot.finish + delta});
    frontier = slot.finish + delta;
  }
  timeline.count_deferral_reads(steps + best.shifts.size());
}

}  // namespace

OptimalPlacement probe_optimal(const LinkTimeline& timeline, double t_es_in,
                               double t_f_min, double duration) {
  OptimalPlacement best;
  probe_impl(timeline, t_es_in, t_f_min, duration, /*early_exit=*/true,
             best);
  return best;
}

void probe_optimal_into(const LinkTimeline& timeline, double t_es_in,
                        double t_f_min, double duration,
                        OptimalPlacement& out) {
  probe_impl(timeline, t_es_in, t_f_min, duration, /*early_exit=*/true,
             out);
}

OptimalPlacement probe_optimal_linear(const LinkTimeline& timeline,
                                      double t_es_in, double t_f_min,
                                      double duration) {
  OptimalPlacement best;
  probe_impl(timeline, t_es_in, t_f_min, duration, /*early_exit=*/false,
             best);
  return best;
}

void commit_optimal(LinkTimeline& timeline, const OptimalPlacement& result,
                    dag::EdgeId edge, std::uint32_t hop) {
  for (const SlotShift& shift : result.shifts) {
    timeline.shift_slot(shift.position, shift.new_earliest_start,
                        shift.new_start, shift.new_finish);
  }
  timeline.commit(result.placement, edge, hop);
}

}  // namespace edgesched::timeline
