#include "dag/transforms.hpp"

namespace edgesched::dag {

Subgraph induced_subgraph(const TaskGraph& graph,
                          const std::vector<TaskId>& tasks) {
  Subgraph result;
  TaskGraphBuilder builder;
  result.new_id.assign(graph.num_tasks(), TaskId{});
  for (TaskId t : tasks) {
    throw_if(!t.valid() || t.index() >= graph.num_tasks(),
             "induced_subgraph: invalid task id");
    throw_if(result.new_id[t.index()].valid(),
             "induced_subgraph: duplicate task id");
    result.new_id[t.index()] =
        builder.add_task(graph.weight(t), graph.name(t));
  }
  for (EdgeId e : graph.all_edges()) {
    const Edge& edge = graph.edge(e);
    const TaskId src = result.new_id[edge.src.index()];
    const TaskId dst = result.new_id[edge.dst.index()];
    if (src.valid() && dst.valid()) {
      builder.add_edge(src, dst, edge.cost);
      result.old_edge.push_back(e);
    }
  }
  result.graph = builder.build();
  return result;
}

}  // namespace edgesched::dag
