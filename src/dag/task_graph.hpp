// Directed acyclic task graph G = (V, E, w, c).
//
// Nodes carry a computation cost w(n); edges carry a communication cost
// c(e). This is the program model of the paper (§2.1): a task may start
// only after every predecessor has finished and all predecessor data has
// arrived at the task's processor.
//
// Every scheduler only reads the graph, so its structure is built once:
// a `TaskGraphBuilder` takes the tasks and edges, and `build()` proves
// the graph acyclic and lays it out in flat, exact-size arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

/// A dependence edge n_src -> n_dst with communication cost c(e).
struct Edge {
  TaskId src;
  TaskId dst;
  double cost = 0.0;  ///< communication cost c(e)
};

/// Immutable, acyclic task DAG in flat arrays: the weights, the edge list
/// (ids in insertion order) and CSR in/out adjacency of edge ids, each
/// task's list in insertion order. Made by `TaskGraphBuilder::build()`;
/// afterwards only values (`set_cost`, `set_weight`) and the label change.
class TaskGraph {
 public:
  /// The empty graph.
  TaskGraph() = default;

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return weights_.empty(); }

  [[nodiscard]] const Edge& edge(EdgeId id) const {
    EDGESCHED_ASSERT(id.index() < edges_.size());
    return edges_[id.index()];
  }

  [[nodiscard]] double weight(TaskId id) const {
    EDGESCHED_ASSERT(id.index() < weights_.size());
    return weights_[id.index()];
  }
  [[nodiscard]] double cost(EdgeId id) const { return edge(id).cost; }

  /// The task's label: the name it was added with, else "n<id>".
  [[nodiscard]] std::string name(TaskId id) const;

  /// Rescales one edge's communication cost (used by the CCR adjuster).
  void set_cost(EdgeId id, double cost);

  /// Rescales one task's computation cost (used by perturbation studies).
  void set_weight(TaskId id, double weight);

  /// Edges arriving at `id` (one per predecessor), in insertion order.
  [[nodiscard]] std::span<const EdgeId> in_edges(TaskId id) const {
    EDGESCHED_ASSERT(id.index() < weights_.size());
    return in_.of(id);
  }
  /// Edges leaving `id` (one per successor), in insertion order.
  [[nodiscard]] std::span<const EdgeId> out_edges(TaskId id) const {
    EDGESCHED_ASSERT(id.index() < weights_.size());
    return out_.of(id);
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

  /// A topological order of all tasks, smallest id first among ready
  /// tasks.
  [[nodiscard]] std::vector<TaskId> topological_order() const;
  /// A topological order in FIFO Kahn order: no heap, for callers whose
  /// result does not depend on the order.
  [[nodiscard]] std::vector<TaskId> fifo_topological_order() const;

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
  friend class TaskGraphBuilder;

  /// CSR: task t's edge ids are ids[offsets[t] .. offsets[t + 1]).
  struct Adjacency {
    std::vector<std::uint32_t> offsets;  ///< num_tasks + 1 entries
    std::vector<EdgeId> ids;
    [[nodiscard]] std::span<const EdgeId> of(TaskId t) const {
      return {ids.data() + offsets[t.index()],
              offsets[t.index() + 1] - offsets[t.index()]};
    }
  };

  /// Kahn's algorithm, smallest id first or FIFO among ready tasks; a
  /// cycle leaves its tasks out.
  [[nodiscard]] std::vector<TaskId> kahn(bool smallest_first) const;

  std::string name_;
  std::vector<double> weights_;
  std::vector<Edge> edges_;
  Adjacency in_;   ///< grouped by destination
  Adjacency out_;  ///< grouped by source
  /// Empty unless some task's name differs from its default "n<id>";
  /// then one entry per task, empty for a default name.
  std::vector<std::string> task_names_;
};

/// Collects tasks and edges, checking each as it comes, and `build()`s
/// the immutable `TaskGraph`. Tasks and edges get dense ids in insertion
/// order. Generators that look at the graph while adding edges ask
/// `has_edge`, `in_degree` and `out_degree`.
class TaskGraphBuilder {
 public:
  TaskGraphBuilder() = default;
  explicit TaskGraphBuilder(std::string name) : name_(std::move(name)) {}

  /// Adds a task with the given computation cost; returns its id.
  TaskId add_task(double weight, std::string name = {});

  /// Adds a dependence edge; returns its id. Throws on self loops,
  /// duplicate edges, invalid endpoints, or negative cost.
  EdgeId add_edge(TaskId src, TaskId dst, double cost);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return weights_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] bool has_edge(TaskId src, TaskId dst) const;
  [[nodiscard]] std::size_t in_degree(TaskId id) const;
  [[nodiscard]] std::size_t out_degree(TaskId id) const;

  void set_name(std::string name) { name_ = std::move(name); }

  /// The graph added so far. Throws std::invalid_argument if it contains
  /// a cycle. Either way the builder is left empty, its scratch freed.
  [[nodiscard]] TaskGraph build();

 private:
  std::string name_;
  std::vector<double> weights_;
  std::vector<std::string> names_;  ///< as TaskGraph::task_names_
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> in_degree_;
  std::vector<std::uint32_t> out_degree_;
  /// Each task's out-edges as a list threaded through the edge ids, for
  /// the duplicate check: per task its newest out-edge, per edge the one
  /// added before it from the same source (id + 1; 0 ends the list).
  std::vector<std::uint32_t> last_out_;
  std::vector<std::uint32_t> previous_out_;
};

}  // namespace edgesched::dag
