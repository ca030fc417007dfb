#include "dag/properties.hpp"

#include <algorithm>

namespace edgesched::dag {

namespace {

/// A bottom level is a max over the successors, so any topological
/// order gives the same values bit for bit: the FIFO one skips a heap.
std::vector<double> bottom_levels_impl(const TaskGraph& graph,
                                       bool include_communication) {
  const std::vector<TaskId> order = graph.fifo_topological_order();
  std::vector<double> bl(graph.num_tasks(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId task = *it;
    double best = 0.0;
    for (EdgeId e : graph.out_edges(task)) {
      const Edge& edge = graph.edge(e);
      const double via = (include_communication ? edge.cost : 0.0) +
                         bl[edge.dst.index()];
      best = std::max(best, via);
    }
    bl[task.index()] = graph.weight(task) + best;
  }
  return bl;
}

}  // namespace

std::vector<double> bottom_levels(const TaskGraph& graph) {
  return bottom_levels_impl(graph, /*include_communication=*/true);
}

std::vector<double> bottom_levels_computation_only(const TaskGraph& graph) {
  return bottom_levels_impl(graph, /*include_communication=*/false);
}

std::vector<double> top_levels(const TaskGraph& graph) {
  const std::vector<TaskId> order = graph.topological_order();
  std::vector<double> tl(graph.num_tasks(), 0.0);
  for (TaskId task : order) {
    double best = 0.0;
    for (EdgeId e : graph.in_edges(task)) {
      const Edge& edge = graph.edge(e);
      const double via =
          tl[edge.src.index()] + graph.weight(edge.src) + edge.cost;
      best = std::max(best, via);
    }
    tl[task.index()] = best;
  }
  return tl;
}

double critical_path_length(const TaskGraph& graph) {
  if (graph.empty()) {
    return 0.0;
  }
  const std::vector<double> bl = bottom_levels(graph);
  return *std::max_element(bl.begin(), bl.end());
}

std::vector<TaskId> critical_path(const TaskGraph& graph) {
  if (graph.empty()) {
    return {};
  }
  const std::vector<double> bl = bottom_levels(graph);
  TaskId current(static_cast<std::size_t>(
      std::max_element(bl.begin(), bl.end()) - bl.begin()));
  std::vector<TaskId> path{current};
  while (!graph.out_edges(current).empty()) {
    // Follow the successor that realises bl(current).
    TaskId best_next;
    double best_value = -1.0;
    for (EdgeId e : graph.out_edges(current)) {
      const Edge& edge = graph.edge(e);
      const double value = edge.cost + bl[edge.dst.index()];
      if (value > best_value) {
        best_value = value;
        best_next = edge.dst;
      }
    }
    current = best_next;
    path.push_back(current);
  }
  return path;
}

double communication_computation_ratio(const TaskGraph& graph) {
  if (graph.num_edges() == 0 || graph.num_tasks() == 0) {
    return 0.0;
  }
  const double mean_comm =
      graph.total_communication() / static_cast<double>(graph.num_edges());
  const double mean_comp =
      graph.total_computation() / static_cast<double>(graph.num_tasks());
  if (mean_comp == 0.0) {
    return 0.0;
  }
  return mean_comm / mean_comp;
}

void rescale_to_ccr(TaskGraph& graph, double target) {
  throw_if(target <= 0.0, "rescale_to_ccr: target must be positive");
  const double current = communication_computation_ratio(graph);
  throw_if(current == 0.0,
           "rescale_to_ccr: graph has no communication or computation");
  const double factor = target / current;
  for (EdgeId e : graph.all_edges()) {
    graph.set_cost(e, graph.cost(e) * factor);
  }
}

std::vector<std::size_t> precedence_levels(const TaskGraph& graph) {
  const std::vector<TaskId> order = graph.topological_order();
  std::vector<std::size_t> level(graph.num_tasks(), 0);
  for (TaskId task : order) {
    for (EdgeId e : graph.in_edges(task)) {
      level[task.index()] = std::max(level[task.index()],
                                     level[graph.edge(e).src.index()] + 1);
    }
  }
  return level;
}

GraphShape shape(const TaskGraph& graph) {
  GraphShape s;
  s.num_tasks = graph.num_tasks();
  s.num_edges = graph.num_edges();
  s.num_entries = graph.entry_tasks().size();
  s.num_exits = graph.exit_tasks().size();
  if (graph.empty()) {
    return s;
  }
  const std::vector<std::size_t> levels = precedence_levels(graph);
  const std::size_t depth =
      *std::max_element(levels.begin(), levels.end()) + 1;
  s.depth = depth;
  std::vector<std::size_t> width(depth, 0);
  for (std::size_t lvl : levels) {
    ++width[lvl];
  }
  s.max_width = *std::max_element(width.begin(), width.end());
  s.avg_out_degree = static_cast<double>(graph.num_edges()) /
                     static_cast<double>(graph.num_tasks());
  return s;
}

}  // namespace edgesched::dag
