// Exclusive link timeline: the schedulable state of one contention domain.
//
// Communications do not preempt each other (§2.2), so a link is a sorted
// sequence of disjoint occupied `TimeSlot`s. `probe_basic` implements the
// Basic Algorithm's first-fit insertion search (§3): find the earliest
// idle interval that admits the edge without violating link causality.
// The OIHSA optimal insertion lives in optimal_insertion.hpp. It also
// reads each slot's deferral slack, which depends on the occupant's
// *other* links: the owner of the timeline (the network state) computes
// it and stores it in the slot (`set_deferral`), so the optimal scan
// reads slots in order and follows no pointer.
//
// ## Invariants the gap index relies on
//
// The slot vector is the free-gap index: slots are sorted by `start` and
// pairwise disjoint (`check_invariants`), so the idle intervals are
// exactly (0, slots[0].start), (slots[i].finish, slots[i+1].start), ...,
// (slots.back().finish, +inf), and both gap ends are non-decreasing in
// the slot index. `probe_basic` exploits that monotonicity: a gap whose
// end precedes the edge's minimum possible finish
// `max(t_es_in + duration, t_f_min)` can never admit the edge, so the
// first candidate gap is found with one binary search over `start`
// (the "first-fit hint") and the linear walk starts there instead of at
// slot 0. Every mutation (`commit`, `erase`, `shift_slot`) must keep the
// sorted/disjoint property or the hint search returns wrong gaps —
// `shift_slot` may therefore only defer, never advance, a slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "timeline/time_slot.hpp"
#include "util/error.hpp"

namespace edgesched::timeline {

class LinkTimeline {
 public:
  /// Probe-work tallies. Plain (non-atomic) members: a timeline belongs
  /// to exactly one scheduling state, which is used by one thread; the
  /// owning network state batches these into the global counters.
  struct ProbeStats {
    std::uint64_t basic_probes = 0;
    std::uint64_t optimal_probes = 0;
    /// Idle intervals examined by `probe_basic` (after the gap-index
    /// skip). steps/probe ≈ 1 on healthy workloads; a drift upwards
    /// means the binary-search hint stopped paying.
    std::uint64_t probe_gap_steps = 0;
    /// Occupied slots visited by the optimal-insertion tail-to-head
    /// scan (after the slack-exhaustion early exit).
    std::uint64_t optimal_scan_steps = 0;
    /// Slot deferral slacks read by optimal insertion: one per scan step
    /// plus one per displaced slot.
    std::uint64_t deferral_reads = 0;
  };

  /// First-fit search: the earliest placement with
  ///   t_f = max(gap_start + dur, t_es_in + dur, t_f_min) inside an idle
  /// interval. `t_es_in` is the earliest start arriving from the previous
  /// hop (or the source task); `t_f_min` the previous hop's finish (0 on
  /// the first hop); `duration` = c(e)/s(L). Never fails: the open tail
  /// after the last slot always admits the edge.
  ///
  /// O(log n) binary search for the first gap that can admit the edge,
  /// then a first-fit walk that in practice inspects O(1) gaps. Returns
  /// placements identical to `probe_basic_linear` (property-tested).
  ///
  /// `skip_before` is a time the caller knows no idle gap ending earlier
  /// can admit the edge (0: nothing known); the binary search then skips
  /// those gaps too. Store-and-forward packets pass the previous packet's
  /// start on the same hop, so a message's k packets walk O(k) gaps, not
  /// O(k^2).
  [[nodiscard]] Placement probe_basic(double t_es_in, double t_f_min,
                                      double duration,
                                      double skip_before = 0.0) const;

  /// Reference implementation of `probe_basic` walking every idle
  /// interval from the head. Kept only as the property-test oracle for
  /// the indexed search — schedulers must use `probe_basic`.
  [[nodiscard]] Placement probe_basic_linear(double t_es_in, double t_f_min,
                                             double duration) const;

  /// Inserts the probed slot for hop `hop` of `edge`'s route. The
  /// placement must come from a probe against the current timeline state.
  /// The slot's deferral slack starts unset (`kUnsetDeferral`).
  void commit(const Placement& placement, dag::EdgeId edge,
              std::uint32_t hop = 0);

  /// Stores the Lemma-2 deferral slack of the slot at `index`.
  void set_deferral(std::size_t index, double deferral) {
    EDGESCHED_ASSERT(index < slots_.size());
    slots_[index].deferral = deferral;
  }

  /// Index of the slot of hop `hop` of `edge`, whose start is `start`;
  /// `size()` if there is none. `hint` is tried first (a position the
  /// slot was committed at); otherwise one binary search on `start`.
  [[nodiscard]] std::size_t find_slot(dag::EdgeId edge, std::uint32_t hop,
                                      double start, std::size_t hint) const;

  /// Removes the slot at `position` (used by schedule replay, the Basic
  /// Algorithm's rollback and tests). Keeps the arena capacity.
  void erase(std::size_t position);

  /// Pre-sizes the slot arena (capacity only; no slots are created).
  void reserve(std::size_t capacity) { slots_.reserve(capacity); }

  [[nodiscard]] const std::vector<TimeSlot>& slots() const noexcept {
    return slots_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }

  /// Finish time of the last slot; 0 when idle.
  [[nodiscard]] double last_finish() const noexcept {
    return slots_.empty() ? 0.0 : slots_.back().finish;
  }

  /// Total occupied time (for load statistics).
  [[nodiscard]] double busy_time() const noexcept;

  /// Direct slot mutation for the optimal-insertion cascade. `index` must
  /// be valid and the new interval must keep the sequence sorted and
  /// disjoint (checked) — deferral only ever moves slots later, which
  /// preserves the gap-index monotonicity documented above. The slot's
  /// deferral slack is left as it was; its owner rewrites it.
  void shift_slot(std::size_t index, double new_earliest_start,
                  double new_start, double new_finish);

  /// Verifies internal invariants: sorted, disjoint, start <= finish,
  /// earliest_start <= start. Throws InternalError on violation.
  void check_invariants() const;

  [[nodiscard]] const ProbeStats& probe_stats() const noexcept {
    return probe_stats_;
  }
  /// Counted by probe_optimal (a free function that only sees a const
  /// timeline); logically mutable statistics, not timeline state.
  void count_optimal_probe() const noexcept {
    ++probe_stats_.optimal_probes;
  }
  void count_optimal_scan_steps(std::uint64_t steps) const noexcept {
    probe_stats_.optimal_scan_steps += steps;
  }
  void count_deferral_reads(std::uint64_t reads) const noexcept {
    probe_stats_.deferral_reads += reads;
  }

 private:
  /// Index of the first slot whose preceding-or-own gap could admit a
  /// finish of `min_finish` — the binary-searched first-fit hint.
  [[nodiscard]] std::size_t first_candidate_gap(double min_finish) const;

  /// Shared first-fit walk starting at gap `first` (see probe_basic).
  [[nodiscard]] Placement probe_from(std::size_t first, double t_es_in,
                                     double t_f_min, double duration) const;

  std::vector<TimeSlot> slots_;  ///< sorted by start, pairwise disjoint
  mutable ProbeStats probe_stats_;
};

}  // namespace edgesched::timeline
