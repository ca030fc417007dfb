// Directed acyclic task graph G = (V, E, w, c).
//
// Nodes carry a computation cost w(n); edges carry a communication cost
// c(e). This is the program model of the paper (§2.1): a task may start
// only after every predecessor has finished and all predecessor data has
// arrived at the task's processor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"

namespace edgesched::dag {

struct TaskTag {};
struct EdgeTag {};

/// Identifier of a task (a node of the DAG).
using TaskId = StrongId<TaskTag>;
/// Identifier of a dependence edge of the DAG.
using EdgeId = StrongId<EdgeTag>;

/// A single task: computation cost plus adjacency.
struct Task {
  std::string name;
  double weight = 0.0;               ///< computation cost w(n)
  std::vector<EdgeId> in_edges;      ///< edges from predecessors
  std::vector<EdgeId> out_edges;     ///< edges to successors
};

/// A dependence edge n_src -> n_dst with communication cost c(e).
struct Edge {
  TaskId src;
  TaskId dst;
  double cost = 0.0;  ///< communication cost c(e)
};

/// Mutable task DAG. Construction is append-only: tasks first, then edges.
/// Acyclicity is not enforced per edge insertion (generators add edges in
/// topological layers); call `validate()` or `is_acyclic()` before
/// scheduling arbitrary input.
class TaskGraph {
 public:
  TaskGraph() = default;
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Adds a task with the given computation cost; returns its id.
  TaskId add_task(double weight, std::string name = {});

  /// Adds a dependence edge; returns its id. Throws on self loops,
  /// duplicate edges, invalid endpoints, or negative cost.
  EdgeId add_edge(TaskId src, TaskId dst, double cost);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return tasks_.empty(); }

  [[nodiscard]] const Task& task(TaskId id) const {
    EDGESCHED_ASSERT(id.index() < tasks_.size());
    return tasks_[id.index()];
  }
  [[nodiscard]] const Edge& edge(EdgeId id) const {
    EDGESCHED_ASSERT(id.index() < edges_.size());
    return edges_[id.index()];
  }

  [[nodiscard]] double weight(TaskId id) const { return task(id).weight; }
  [[nodiscard]] double cost(EdgeId id) const { return edge(id).cost; }

  /// Rescales one edge's communication cost (used by the CCR adjuster).
  void set_cost(EdgeId id, double cost);

  /// Rescales one task's computation cost (used by perturbation studies).
  void set_weight(TaskId id, double weight);

  /// Edges arriving at `id` (one per predecessor).
  [[nodiscard]] const std::vector<EdgeId>& in_edges(TaskId id) const {
    return task(id).in_edges;
  }
  /// Edges leaving `id` (one per successor).
  [[nodiscard]] const std::vector<EdgeId>& out_edges(TaskId id) const {
    return task(id).out_edges;
  }

  /// pred(n): predecessor task ids, in edge-insertion order.
  [[nodiscard]] std::vector<TaskId> predecessors(TaskId id) const;
  /// succ(n): successor task ids, in edge-insertion order.
  [[nodiscard]] std::vector<TaskId> successors(TaskId id) const;

  /// Tasks with no predecessors.
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;
  /// Tasks with no successors.
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

  /// All task ids, 0..num_tasks-1.
  [[nodiscard]] std::vector<TaskId> all_tasks() const;
  /// All edge ids, 0..num_edges-1.
  [[nodiscard]] std::vector<EdgeId> all_edges() const;

  /// True iff the edge set contains no directed cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// A topological order of all tasks, smallest id first among ready
  /// tasks. Throws std::invalid_argument if the graph is cyclic.
  [[nodiscard]] std::vector<TaskId> topological_order() const;
  /// A topological order in FIFO Kahn order: no heap, for callers whose
  /// result does not depend on the order. Throws like the above.
  [[nodiscard]] std::vector<TaskId> fifo_topological_order() const;

  /// Throws std::invalid_argument describing the first structural problem
  /// found (cycle); a valid graph returns normally.
  void validate() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Canonical 64-bit structural hash over everything a scheduler sees:
  /// task count, every computation cost in task order, and every edge
  /// (src, dst, cost) in edge order. Task and graph *names* are excluded —
  /// two graphs differing only in labels schedule identically and share a
  /// fingerprint. Deterministic across platforms and runs; used as the
  /// content-address key of svc::ScheduleCache.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Sum of all computation costs.
  [[nodiscard]] double total_computation() const noexcept;
  /// Sum of all communication costs.
  [[nodiscard]] double total_communication() const noexcept;

 private:
  /// Kahn's algorithm, smallest id first or FIFO among ready tasks; a
  /// cycle leaves its tasks out.
  [[nodiscard]] std::vector<TaskId> kahn(bool smallest_first) const;

  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Edge> edges_;
};

}  // namespace edgesched::dag
