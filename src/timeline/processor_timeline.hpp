// Processor timeline: non-preemptive task execution slots with an
// insertion-based placement policy (a task may fill an idle gap between
// already-scheduled tasks when it fits entirely).
//
// The slot vector is the gap index, exactly as in `LinkTimeline`: slots
// are sorted by `start` and pairwise disjoint, so the idle intervals are
// (0, slots[0].start), (slots[i].finish, slots[i+1].start), ...,
// (slots.back().finish, +inf). `earliest_start` binary-searches past the
// gaps that end too early to admit the task and walks the rest in time
// order; on every measured workload that walk examines about one gap per
// query (`query_stats`, flushed by `sched::MachineState`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dag/task_graph.hpp"
#include "util/error.hpp"

namespace edgesched::timeline {

/// One task execution interval on a processor.
struct TaskSlot {
  double start = 0.0;
  double finish = 0.0;
  dag::TaskId task;
};

class ProcessorTimeline {
 public:
  /// Query-work tallies. Plain members, like `LinkTimeline::ProbeStats`:
  /// the owning `sched::MachineState` batches them into the global
  /// counters once per lifetime.
  struct QueryStats {
    std::uint64_t queries = 0;
    /// Idle gaps examined by the first-fit walk (after the hint skip).
    std::uint64_t gap_steps = 0;
  };

  /// Earliest start >= ready_time such that [start, start + duration] fits
  /// into an idle interval (insertion policy). O(log n) binary search for
  /// the first gap that can admit the task, then a first-fit walk; returns
  /// the same answer as `earliest_start_linear` (property-tested in
  /// processor_timeline_property_test).
  [[nodiscard]] double earliest_start(double ready_time,
                                      double duration) const;

  /// Reference walk over every idle gap from the head. Kept only as the
  /// property-test oracle for the hinted search — schedulers must use
  /// `earliest_start`.
  [[nodiscard]] double earliest_start_linear(double ready_time,
                                             double duration) const;

  /// Books the task at the given start; `start` must come from
  /// `earliest_start` against the current state.
  void commit(dag::TaskId task, double start, double duration);

  /// Pre-sizes the slot vector for about `num_slots` commits, so a
  /// scheduler can arena-allocate once per run instead of growing per
  /// placement.
  void reserve(std::size_t num_slots) { slots_.reserve(num_slots); }

  [[nodiscard]] const std::vector<TaskSlot>& slots() const noexcept {
    return slots_;
  }
  /// Finish time of the last task; 0 when idle. This is t_f(P).
  [[nodiscard]] double last_finish() const noexcept {
    return slots_.empty() ? 0.0 : slots_.back().finish;
  }

  /// Verifies sorted, disjoint slots with start <= finish. Throws
  /// InternalError on violation.
  void check_invariants() const;

  [[nodiscard]] const QueryStats& query_stats() const noexcept {
    return query_stats_;
  }

 private:
  /// Shared first-fit walk starting at gap `first` (see earliest_start).
  [[nodiscard]] double start_from(std::size_t first, double ready_time,
                                  double duration) const;

  std::vector<TaskSlot> slots_;  ///< sorted by start, pairwise disjoint
  mutable QueryStats query_stats_;
};

}  // namespace edgesched::timeline
