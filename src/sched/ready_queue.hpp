// Incremental ready queue for the list-scheduling loop.
//
// The one Kahn loop of the library: pop the highest-priority ready task
// (ties broken by smaller task id), place it, release its successors.
// The engine interleaves it with placement, so its ordering work is
// bounded by O(E log V) pushes/pops with no O(V) order vector and no
// second pass over the graph; `list_order` drains it for the schedulers
// that want the whole order up front. The pop sequence is checked
// against the O(V^2) definition of the list order in
// tests/ready_queue_property_test.cpp. The heap and indegree arrays are
// sized once at construction, so a run performs no ordering-related
// allocations after setup.
#pragma once

#include <cstddef>
#include <vector>

#include "dag/task_graph.hpp"

namespace edgesched::sched {

class ReadyQueue {
 public:
  /// Sizes the heap and indegree arrays for `graph` and seeds every
  /// source task. `priority` must outlive the queue (one value per
  /// task, higher pops first).
  ReadyQueue(const dag::TaskGraph& graph,
             const std::vector<double>& priority);

  /// Pops the highest-priority ready task into `out`; false once every
  /// task has been popped (a built graph is acyclic).
  [[nodiscard]] bool pop(dag::TaskId& out);

  /// Releases `task`'s successors after it has been placed, pushing any
  /// that became ready.
  void release_successors(const dag::TaskGraph& graph, dag::TaskId task);

 private:
  struct Entry {
    double priority;
    dag::TaskId task;
    bool operator<(const Entry& other) const {
      if (priority != other.priority) {
        return priority < other.priority;  // max-heap on priority
      }
      return task > other.task;  // then min task id
    }
  };

  void push(dag::TaskId task);

  const std::vector<double>* priority_;
  std::vector<Entry> heap_;
  std::vector<std::size_t> indegree_;
};

}  // namespace edgesched::sched
