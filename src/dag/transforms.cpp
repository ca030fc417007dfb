#include "dag/transforms.hpp"

namespace edgesched::dag {

Subgraph induced_subgraph(const TaskGraph& graph,
                          const std::vector<TaskId>& tasks) {
  Subgraph result;
  result.new_id.assign(graph.num_tasks(), TaskId{});
  for (TaskId t : tasks) {
    throw_if(!t.valid() || t.index() >= graph.num_tasks(),
             "induced_subgraph: invalid task id");
    throw_if(result.new_id[t.index()].valid(),
             "induced_subgraph: duplicate task id");
    result.new_id[t.index()] =
        result.graph.add_task(graph.weight(t), graph.task(t).name);
  }
  for (EdgeId e : graph.all_edges()) {
    const Edge& edge = graph.edge(e);
    const TaskId src = result.new_id[edge.src.index()];
    const TaskId dst = result.new_id[edge.dst.index()];
    if (src.valid() && dst.valid()) {
      result.graph.add_edge(src, dst, edge.cost);
    }
  }
  return result;
}

}  // namespace edgesched::dag
