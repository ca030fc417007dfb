// Task-graph transformations.
//
// * `induced_subgraph` extracts the subgraph over a task subset (edges
//   with both endpoints inside), preserving costs. The executor's online
//   replan schedules the unfinished remainder of a DAG through it.
#pragma once

#include <vector>

#include "dag/task_graph.hpp"

namespace edgesched::dag {

/// Result of `induced_subgraph`: the subgraph plus the mapping from
/// original ids to subgraph ids (invalid id = not selected) and back
/// for edges.
struct Subgraph {
  TaskGraph graph;
  std::vector<TaskId> new_id;    ///< indexed by original task id
  std::vector<EdgeId> old_edge;  ///< indexed by subgraph edge id
};

/// The subgraph induced by `tasks` (duplicates rejected).
[[nodiscard]] Subgraph induced_subgraph(const TaskGraph& graph,
                                        const std::vector<TaskId>& tasks);

}  // namespace edgesched::dag
