#include "dag/task_graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "util/hash.hpp"

namespace edgesched::dag {

namespace {
/// Costs and weights must be finite and non-negative; written so NaN
/// fails too (every comparison with NaN is false).
bool valid_cost(double value) {
  return std::isfinite(value) && value >= 0.0;
}

std::string default_name(TaskId id) {
  return "n" + std::to_string(id.value());
}

}  // namespace

TaskId TaskGraphBuilder::add_task(double weight, std::string name) {
  throw_if(!valid_cost(weight),
           "TaskGraph::add_task: negative computation cost");
  TaskId id(weights_.size());
  const bool custom = !name.empty() && name != default_name(id);
  if (custom || !names_.empty()) {
    names_.resize(id.index());  // earlier tasks keep their default name
    names_.push_back(custom ? std::move(name) : std::string());
  }
  weights_.push_back(weight);
  in_degree_.push_back(0);
  out_degree_.push_back(0);
  last_out_.push_back(0);
  return id;
}

EdgeId TaskGraphBuilder::add_edge(TaskId src, TaskId dst, double cost) {
  throw_if(!src.valid() || src.index() >= weights_.size(),
           "TaskGraph::add_edge: invalid source task");
  throw_if(!dst.valid() || dst.index() >= weights_.size(),
           "TaskGraph::add_edge: invalid destination task");
  throw_if(src == dst, "TaskGraph::add_edge: self loop");
  throw_if(!valid_cost(cost),
           "TaskGraph::add_edge: negative communication cost");
  throw_if(has_edge(src, dst), "TaskGraph::add_edge: duplicate edge");
  EdgeId id(edges_.size());
  edges_.push_back(Edge{src, dst, cost});
  previous_out_.push_back(last_out_[src.index()]);
  last_out_[src.index()] = static_cast<std::uint32_t>(edges_.size());
  ++out_degree_[src.index()];
  ++in_degree_[dst.index()];
  return id;
}

bool TaskGraphBuilder::has_edge(TaskId src, TaskId dst) const {
  EDGESCHED_ASSERT(src.index() < last_out_.size());
  for (std::uint32_t e = last_out_[src.index()]; e != 0;
       e = previous_out_[e - 1]) {
    if (edges_[e - 1].dst == dst) {
      return true;
    }
  }
  return false;
}

std::size_t TaskGraphBuilder::in_degree(TaskId id) const {
  EDGESCHED_ASSERT(id.index() < in_degree_.size());
  return in_degree_[id.index()];
}

std::size_t TaskGraphBuilder::out_degree(TaskId id) const {
  EDGESCHED_ASSERT(id.index() < out_degree_.size());
  return out_degree_[id.index()];
}

TaskGraph TaskGraphBuilder::build() {
  TaskGraph graph;
  graph.name_ = std::move(name_);
  graph.weights_ = std::move(weights_);
  graph.weights_.shrink_to_fit();
  graph.edges_ = std::move(edges_);
  graph.edges_.shrink_to_fit();
  if (!names_.empty()) {
    names_.resize(graph.weights_.size());
    graph.task_names_ = std::move(names_);
    graph.task_names_.shrink_to_fit();
  }
  // A counting sort of the edge ids by destination and by source; one
  // pass in id order keeps every task's list in insertion order. The
  // degree counts, spent, become the fill cursors.
  const auto group = [&](std::vector<std::uint32_t>& degree, auto endpoint) {
    TaskGraph::Adjacency adjacency;
    adjacency.offsets.assign(degree.size() + 1, 0);
    std::partial_sum(degree.begin(), degree.end(),
                     adjacency.offsets.begin() + 1);
    std::copy(adjacency.offsets.begin(), adjacency.offsets.end() - 1,
              degree.begin());
    adjacency.ids.resize(graph.edges_.size());
    for (std::size_t i = 0; i < graph.edges_.size(); ++i) {
      adjacency.ids[degree[endpoint(graph.edges_[i]).index()]++] = EdgeId(i);
    }
    return adjacency;
  };
  graph.in_ = group(in_degree_, [](const Edge& e) { return e.dst; });
  graph.out_ = group(out_degree_, [](const Edge& e) { return e.src; });
  *this = TaskGraphBuilder();
  throw_if(graph.kahn(/*smallest_first=*/false).size() != graph.num_tasks(),
           "TaskGraph::build: graph contains a cycle");
  return graph;
}

std::string TaskGraph::name(TaskId id) const {
  EDGESCHED_ASSERT(id.index() < weights_.size());
  if (!task_names_.empty() && !task_names_[id.index()].empty()) {
    return task_names_[id.index()];
  }
  return default_name(id);
}

void TaskGraph::set_cost(EdgeId id, double cost) {
  throw_if(!id.valid() || id.index() >= edges_.size(),
           "TaskGraph::set_cost: invalid edge");
  throw_if(!valid_cost(cost),
           "TaskGraph::set_cost: negative communication cost");
  edges_[id.index()].cost = cost;
}

void TaskGraph::set_weight(TaskId id, double weight) {
  throw_if(!id.valid() || id.index() >= weights_.size(),
           "TaskGraph::set_weight: invalid task");
  throw_if(!valid_cost(weight),
           "TaskGraph::set_weight: negative computation cost");
  weights_[id.index()] = weight;
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
  for (std::size_t i = 0; i < num_tasks(); ++i) {
    if (in_edges(TaskId(i)).empty()) {
      result.emplace_back(i);
    }
  }
  return result;
}

std::vector<TaskId> TaskGraph::exit_tasks() const {
  std::vector<TaskId> result;
  for (std::size_t i = 0; i < num_tasks(); ++i) {
    if (out_edges(TaskId(i)).empty()) {
      result.emplace_back(i);
    }
  }
  return result;
}

std::vector<TaskId> TaskGraph::all_tasks() const {
  std::vector<TaskId> result;
  result.reserve(num_tasks());
  for (std::size_t i = 0; i < num_tasks(); ++i) {
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
  std::vector<std::size_t> indegree(num_tasks());
  std::vector<TaskId> order;
  order.reserve(num_tasks());
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
  for (std::size_t i = 0; i < num_tasks(); ++i) {
    indegree[i] = in_edges(TaskId(i)).size();
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
    for (EdgeId e : out_edges(order[head])) {
      const std::size_t next = edges_[e.index()].dst.index();
      if (--indegree[next] == 0) {
        release(next);
      }
    }
  }
}

std::vector<TaskId> TaskGraph::topological_order() const {
  return kahn(/*smallest_first=*/true);
}

std::vector<TaskId> TaskGraph::fifo_topological_order() const {
  return kahn(/*smallest_first=*/false);
}

std::uint64_t TaskGraph::fingerprint() const noexcept {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(weights_.size()));
  for (double w : weights_) {
    fp.mix(w);
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
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

double TaskGraph::total_communication() const noexcept {
  double sum = 0.0;
  for (const Edge& e : edges_) {
    sum += e.cost;
  }
  return sum;
}

}  // namespace edgesched::dag
