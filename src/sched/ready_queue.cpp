#include "sched/ready_queue.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace edgesched::sched {

ReadyQueue::ReadyQueue(const dag::TaskGraph& graph,
                       const std::vector<double>& priority)
    : priority_(&priority) {
  throw_if(priority.size() != graph.num_tasks(),
           "ReadyQueue: priority vector size mismatch");
  heap_.reserve(graph.num_tasks());
  indegree_.resize(graph.num_tasks());
  for (dag::TaskId t : graph.all_tasks()) {
    indegree_[t.index()] = graph.in_edges(t).size();
    if (indegree_[t.index()] == 0) {
      push(t);
    }
  }
}

void ReadyQueue::push(dag::TaskId task) {
  heap_.push_back(Entry{(*priority_)[task.index()], task});
  std::push_heap(heap_.begin(), heap_.end());
}

bool ReadyQueue::pop(dag::TaskId& out) {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end());
  out = heap_.back().task;
  heap_.pop_back();
  return true;
}

void ReadyQueue::release_successors(const dag::TaskGraph& graph,
                                    dag::TaskId task) {
  for (dag::EdgeId e : graph.out_edges(task)) {
    const dag::TaskId next = graph.edge(e).dst;
    if (--indegree_[next.index()] == 0) {
      push(next);
    }
  }
}

}  // namespace edgesched::sched
