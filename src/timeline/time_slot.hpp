// Time-slot primitives shared by the exclusive link timelines and the
// processor timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "dag/task_graph.hpp"

namespace edgesched::timeline {

/// Deferral slack of a slot whose occupant's record is not complete yet.
/// Optimal insertion throws on reading it.
inline constexpr double kUnsetDeferral =
    std::numeric_limits<double>::quiet_NaN();

/// One occupied interval on an exclusive link timeline. The slot occupies
/// [start, finish]; `earliest_start` records t_es — when the edge *could*
/// have started on this link — which bounds how far the slot may later be
/// deferred (OIHSA, §4.4). `deferral` is that bound (Lemma 2), kept in
/// the slot by its owner so the optimal-insertion scan reads it in order.
struct TimeSlot {
  double earliest_start = 0.0;  ///< t_es(e, L)
  double start = 0.0;           ///< t_s(e, L), virtual start
  double finish = 0.0;          ///< t_f(e, L)
  dag::EdgeId edge;             ///< occupant
  std::uint32_t hop = 0;        ///< index of the occupant's occupation
  double deferral = kUnsetDeferral;  ///< Lemma-2 slack; 0 on a last hop
};
static_assert(sizeof(TimeSlot) == 40, "hop fills the padding after edge");

/// A tentative (uncommitted) placement of an edge on one link.
struct Placement {
  double earliest_start = 0.0;  ///< t_es(e, L)
  double start = 0.0;           ///< t_s(e, L); slot is [start, finish]
  double finish = 0.0;          ///< t_f(e, L)
  std::size_t position = 0;     ///< slot index the new slot is inserted at
};

}  // namespace edgesched::timeline
