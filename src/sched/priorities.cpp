#include "sched/priorities.hpp"

#include "dag/properties.hpp"
#include "obs/trace.hpp"
#include "sched/ready_queue.hpp"

namespace edgesched::sched {

std::vector<double> priorities(const dag::TaskGraph& graph,
                               PriorityScheme scheme) {
  obs::Span span("sched/priorities", "sched", graph.num_tasks());
  switch (scheme) {
    case PriorityScheme::kBottomLevel:
      return dag::bottom_levels(graph);
    case PriorityScheme::kBottomLevelComputationOnly:
      return dag::bottom_levels_computation_only(graph);
    case PriorityScheme::kTopLevelPlusBottomLevel: {
      std::vector<double> result = dag::bottom_levels(graph);
      const std::vector<double> tl = dag::top_levels(graph);
      for (std::size_t i = 0; i < result.size(); ++i) {
        result[i] += tl[i];
      }
      return result;
    }
  }
  throw std::invalid_argument("priorities: unknown scheme");
}

std::vector<dag::TaskId> list_order(const dag::TaskGraph& graph,
                                    const std::vector<double>& priority) {
  ReadyQueue ready(graph, priority);
  std::vector<dag::TaskId> order;
  order.reserve(graph.num_tasks());
  dag::TaskId task;
  while (ready.pop(task)) {
    order.push_back(task);
    ready.release_successors(graph, task);
  }
  return order;
}

std::vector<dag::TaskId> list_order(const dag::TaskGraph& graph,
                                    PriorityScheme scheme) {
  return list_order(graph, priorities(graph, scheme));
}

}  // namespace edgesched::sched
