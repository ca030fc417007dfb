// OIHSA's optimal insertion (§4.4).
//
// Unlike first-fit, already-scheduled edges may be *deferred* within the
// slack their own route grants them (Lemma 2): an edge stalled on link L
// whose next route link starts later than necessary can slide towards that
// start without violating link causality, enlarging an idle interval. The
// tail-to-head `accum` scan (formula (2)) computes, for every occupied
// slot, the largest accumulated deferral available behind it; insertion
// before a slot is feasible iff the candidate finish fits into the gap
// plus that slack (formula (3)). Theorem 1: the head-most feasible
// position yields the earliest possible start.
//
// ## Early exit on slack exhaustion
//
// The scan keeps the invariant that a slot's *effective deadline*
// `slot.start + accum` is non-increasing towards the head (accum can grow
// head-wards only by the gap it just crossed, which the start loses
// again). The candidate finish, by contrast, can never drop below
// `max(t_es_in + duration, t_f_min)`. Once the deadline falls below that
// bound, no head-ward position can ever be feasible and the scan stops —
// on packed timelines probed near the tail this turns the O(n) walk into
// O(tail window). The placements produced are identical to the full scan
// (property-tested).
//
// Deferral slack depends on where each occupant edge sits on its *next*
// route link, which only the scheduler knows. The scheduler stores it in
// each slot (`TimeSlot::deferral`, written through
// `LinkTimeline::set_deferral` whenever one of its inputs changes), so
// the scan reads slots in order and calls nothing per slot. A slot whose
// slack was never written (its occupant's record is not complete) throws
// when the scan or the cascade reads it.
#pragma once

#include <cstdint>
#include <vector>

#include "timeline/link_timeline.hpp"

namespace edgesched::timeline {

/// One slot displaced by an optimal insertion, with its post-shift times.
struct SlotShift {
  std::size_t position = 0;  ///< index *before* the new slot is inserted
  dag::EdgeId edge;          ///< occupant that moved
  double new_earliest_start = 0.0;
  double new_start = 0.0;
  double new_finish = 0.0;
};

/// Outcome of an optimal-insertion probe.
struct OptimalPlacement {
  Placement placement;
  std::vector<SlotShift> shifts;  ///< displaced slots, head to tail
};

/// Probes the optimal insertion of an edge with the given incoming state,
/// reading every occupied slot's stored deferral slack. Does not mutate
/// the timeline. The result's shifts are expressed against the current
/// slot indices.
[[nodiscard]] OptimalPlacement probe_optimal(const LinkTimeline& timeline,
                                             double t_es_in, double t_f_min,
                                             double duration);

/// Allocation-free variant: writes the result into `out`, reusing its
/// shift buffer. The per-edge hot loop (one probe per route hop) calls
/// this with a scratch `OptimalPlacement` owned by the network state.
void probe_optimal_into(const LinkTimeline& timeline, double t_es_in,
                        double t_f_min, double duration,
                        OptimalPlacement& out);

/// Reference probe without the slack-exhaustion early exit; the
/// property-test oracle for `probe_optimal`. Schedulers must not use it.
[[nodiscard]] OptimalPlacement probe_optimal_linear(
    const LinkTimeline& timeline, double t_es_in, double t_f_min,
    double duration);

/// Applies a probed optimal placement: shifts the displaced slots, then
/// inserts the new slot for hop `hop` of `edge` (slack unset). The
/// placement must have been probed against the current timeline state.
/// The displaced slots keep their old slack; the caller rewrites it.
void commit_optimal(LinkTimeline& timeline, const OptimalPlacement& result,
                    dag::EdgeId edge, std::uint32_t hop = 0);

}  // namespace edgesched::timeline
