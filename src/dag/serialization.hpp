// Task-graph serialization: GraphViz DOT export and a line-oriented text
// format for storing and exchanging workloads.
//
// Text format (comments start with '#'):
//   graph <name>
//   task <id> <weight> [name]
//   edge <src-id> <dst-id> <cost>
// Task ids must be dense and in increasing order starting at 0.
#pragma once

#include <iosfwd>

#include "dag/task_graph.hpp"

namespace edgesched::dag {

/// Writes the graph in GraphViz DOT format (node labels carry weights,
/// edge labels costs).
void write_dot(std::ostream& out, const TaskGraph& graph);

/// Writes the graph in the edgesched text format.
void write_text(std::ostream& out, const TaskGraph& graph);

/// Parses a graph from the edgesched text format. Throws
/// std::invalid_argument on malformed input.
[[nodiscard]] TaskGraph read_text(std::istream& in);

/// Standard Task Graph (STG, Kasahara Lab) format support. The format is
///
///   <task count n>                    (excluding the dummy entry/exit)
///   <id> <processing time> <#preds> <pred ids...>   — one line per task,
///                                       ids 0..n+1 where 0 and n+1 are
///                                       zero-cost dummy entry/exit nodes
///   # comments after the task lines are ignored
///
/// STG carries no communication costs; every edge receives
/// `default_comm_cost`. Dummy entry/exit nodes are preserved (zero
/// weight), so task ids match the file.
[[nodiscard]] TaskGraph read_stg(std::istream& in,
                                 double default_comm_cost = 1.0);

/// Writes the graph in STG form (communication costs are dropped; the
/// graph must already have unique entry and exit tasks at ids 0 and
/// num_tasks-1, as produced by read_stg — otherwise throws).
void write_stg(std::ostream& out, const TaskGraph& graph);

}  // namespace edgesched::dag
