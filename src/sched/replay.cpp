#include "sched/replay.hpp"

#include <algorithm>
#include <vector>

#include "net/routing.hpp"
#include "sched/network_state.hpp"

namespace edgesched::sched {

Schedule replay_under_contention(const dag::TaskGraph& graph,
                                 const net::Topology& topology,
                                 const Schedule& ideal) {
  throw_if(ideal.num_tasks() != graph.num_tasks(),
           "replay_under_contention: schedule does not match the graph");
  Schedule out(ideal.algorithm() + "-replay", graph.num_tasks(),
               graph.num_edges());

  // Execute tasks in the ideal schedule's start order; topological
  // position breaks ties so zero-length tasks stay precedence-safe.
  std::vector<std::size_t> topo_position(graph.num_tasks());
  {
    const std::vector<dag::TaskId> topo = graph.topological_order();
    for (std::size_t i = 0; i < topo.size(); ++i) {
      topo_position[topo[i].index()] = i;
    }
  }
  std::vector<dag::TaskId> order = graph.all_tasks();
  std::sort(order.begin(), order.end(),
            [&](dag::TaskId a, dag::TaskId b) {
              const double sa = ideal.task(a).start;
              const double sb = ideal.task(b).start;
              if (sa != sb) return sa < sb;
              return topo_position[a.index()] < topo_position[b.index()];
            });

  ExclusiveNetworkState network(topology, graph.num_edges());
  MachineState machines(topology);
  const net::StaticRouteTable routes(topology);

  for (dag::TaskId task : order) {
    const net::NodeId processor = ideal.task(task).processor;
    throw_if(!processor.valid(),
             "replay_under_contention: unplaced task in input schedule");
    // Same dynamic model as the contention-aware algorithms (§4.1):
    // communications leave at the task's ready moment.
    double ready_moment = 0.0;
    for (dag::EdgeId e : graph.in_edges(task)) {
      ready_moment =
          std::max(ready_moment, out.task(graph.edge(e).src).finish);
    }
    double data_ready = ready_moment;
    for (dag::EdgeId e : graph.in_edges(task)) {
      const dag::Edge& edge = graph.edge(e);
      const TaskPlacement& src = out.task(edge.src);
      EdgeCommunication comm;
      comm.arrival = src.finish;
      if (src.processor == processor || edge.cost <= 0.0) {
        comm.kind = EdgeCommunication::Kind::kLocal;
      } else {
        const net::Route& route = routes.route(src.processor, processor);
        comm.arrival =
            network.commit_edge_basic(e, route, ready_moment, edge.cost);
        comm.kind = EdgeCommunication::Kind::kExclusive;
        comm.route = route;
        const EdgeRecord& record = network.record(e);
        comm.occupations = record.occupations;
      }
      data_ready = std::max(data_ready, comm.arrival);
      out.set_communication(e, std::move(comm));
    }
    const double duration =
        graph.weight(task) / topology.processor_speed(processor);
    const double start =
        machines.earliest_start(processor, data_ready, duration);
    machines.commit(processor, task, start, duration);
    out.place_task(task, TaskPlacement{processor, start, start + duration});
  }
  return out;
}

}  // namespace edgesched::sched
