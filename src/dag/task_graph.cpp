#include "dag/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/hash.hpp"

namespace edgesched::dag {

namespace {
/// Costs and weights must be finite and non-negative; written so NaN
/// fails too (every comparison with NaN is false).
bool valid_cost(double value) {
  return std::isfinite(value) && value >= 0.0;
}
}  // namespace

TaskId TaskGraph::add_task(double weight, std::string name) {
  throw_if(!valid_cost(weight),
           "TaskGraph::add_task: negative computation cost");
  TaskId id(tasks_.size());
  if (name.empty()) {
    name = "n" + std::to_string(id.value());
  }
  tasks_.push_back(Task{std::move(name), weight, {}, {}});
  return id;
}

EdgeId TaskGraph::add_edge(TaskId src, TaskId dst, double cost) {
  throw_if(!src.valid() || src.index() >= tasks_.size(),
           "TaskGraph::add_edge: invalid source task");
  throw_if(!dst.valid() || dst.index() >= tasks_.size(),
           "TaskGraph::add_edge: invalid destination task");
  throw_if(src == dst, "TaskGraph::add_edge: self loop");
  throw_if(!valid_cost(cost),
           "TaskGraph::add_edge: negative communication cost");
  for (EdgeId existing : tasks_[src.index()].out_edges) {
    throw_if(edges_[existing.index()].dst == dst,
             "TaskGraph::add_edge: duplicate edge");
  }
  EdgeId id(edges_.size());
  edges_.push_back(Edge{src, dst, cost});
  tasks_[src.index()].out_edges.push_back(id);
  tasks_[dst.index()].in_edges.push_back(id);
  return id;
}

void TaskGraph::set_cost(EdgeId id, double cost) {
  throw_if(!id.valid() || id.index() >= edges_.size(),
           "TaskGraph::set_cost: invalid edge");
  throw_if(!valid_cost(cost),
           "TaskGraph::set_cost: negative communication cost");
  edges_[id.index()].cost = cost;
}

void TaskGraph::set_weight(TaskId id, double weight) {
  throw_if(!id.valid() || id.index() >= tasks_.size(),
           "TaskGraph::set_weight: invalid task");
  throw_if(!valid_cost(weight),
           "TaskGraph::set_weight: negative computation cost");
  tasks_[id.index()].weight = weight;
}

std::vector<TaskId> TaskGraph::predecessors(TaskId id) const {
  std::vector<TaskId> result;
  result.reserve(in_edges(id).size());
  for (EdgeId e : in_edges(id)) {
    result.push_back(edge(e).src);
  }
  return result;
}

std::vector<TaskId> TaskGraph::successors(TaskId id) const {
  std::vector<TaskId> result;
  result.reserve(out_edges(id).size());
  for (EdgeId e : out_edges(id)) {
    result.push_back(edge(e).dst);
  }
  return result;
}

std::vector<TaskId> TaskGraph::entry_tasks() const {
  std::vector<TaskId> result;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].in_edges.empty()) {
      result.emplace_back(i);
    }
  }
  return result;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  std::vector<TaskId> result;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].out_edges.empty()) {
      result.emplace_back(i);
    }
  }
  return result;
}

std::vector<TaskId> TaskGraph::all_tasks() const {
  std::vector<TaskId> result;
  result.reserve(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    result.emplace_back(i);
  }
  return result;
}

std::vector<EdgeId> TaskGraph::all_edges() const {
  std::vector<EdgeId> result;
  result.reserve(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    result.emplace_back(i);
  }
  return result;
}

std::vector<TaskId> TaskGraph::kahn(bool smallest_first) const {
  std::vector<std::size_t> indegree(tasks_.size());
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  // FIFO: `order` is the queue. Smallest id first: a min-heap feeds it,
  // which keeps the order independent of container internals.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>> heap;
  const auto release = [&](std::size_t i) {
    if (smallest_first) {
      heap.push(i);
    } else {
      order.emplace_back(i);
    }
  };
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    indegree[i] = tasks_[i].in_edges.size();
    if (indegree[i] == 0) {
      release(i);
    }
  }
  for (std::size_t head = 0;; ++head) {
    if (smallest_first && !heap.empty()) {
      order.emplace_back(heap.top());
      heap.pop();
    }
    if (head == order.size()) {
      return order;
    }
    for (EdgeId e : tasks_[order[head].index()].out_edges) {
      const std::size_t next = edges_[e.index()].dst.index();
      if (--indegree[next] == 0) {
        release(next);
      }
    }
  }
}

bool TaskGraph::is_acyclic() const {
  return kahn(/*smallest_first=*/false).size() == tasks_.size();
}

std::vector<TaskId> TaskGraph::topological_order() const {
  std::vector<TaskId> order = kahn(/*smallest_first=*/true);
  throw_if(order.size() != tasks_.size(),
           "TaskGraph::topological_order: graph contains a cycle");
  return order;
}

std::vector<TaskId> TaskGraph::fifo_topological_order() const {
  std::vector<TaskId> order = kahn(/*smallest_first=*/false);
  throw_if(order.size() != tasks_.size(),
           "TaskGraph::topological_order: graph contains a cycle");
  return order;
}

void TaskGraph::validate() const {
  throw_if(!is_acyclic(), "TaskGraph::validate: graph contains a cycle");
}

std::uint64_t TaskGraph::fingerprint() const noexcept {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(tasks_.size()));
  for (const Task& t : tasks_) {
    fp.mix(t.weight);
  }
  fp.mix(static_cast<std::uint64_t>(edges_.size()));
  for (const Edge& e : edges_) {
    fp.mix(static_cast<std::uint64_t>(e.src.value()));
    fp.mix(static_cast<std::uint64_t>(e.dst.value()));
    fp.mix(e.cost);
  }
  return fp.value();
}

double TaskGraph::total_computation() const noexcept {
  double sum = 0.0;
  for (const Task& t : tasks_) {
    sum += t.weight;
  }
  return sum;
}

double TaskGraph::total_communication() const noexcept {
  double sum = 0.0;
  for (const Edge& e : edges_) {
    sum += e.cost;
  }
  return sum;
}

}  // namespace edgesched::dag
