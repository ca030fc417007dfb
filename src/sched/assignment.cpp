#include "sched/assignment.hpp"

#include <algorithm>

#include "net/routing.hpp"
#include "sched/network_state.hpp"

namespace edgesched::sched {

Schedule schedule_assignment(const dag::TaskGraph& graph,
                             const net::Topology& topology,
                             const Assignment& assignment,
                             const AssignmentOptions& options) {
  throw_if(assignment.size() != graph.num_tasks(),
           "schedule_assignment: assignment size mismatch");
  for (net::NodeId p : assignment) {
    throw_if(!p.valid() || p.index() >= topology.num_nodes() ||
                 !topology.is_processor(p),
             "schedule_assignment: assignment names a non-processor");
  }

  Schedule out(options.label, graph.num_tasks(), graph.num_edges());
  const std::vector<dag::TaskId> order =
      list_order(graph, options.priority);
  ExclusiveNetworkState network(topology, graph.num_edges());
  MachineState machines(topology);
  const net::StaticRouteTable routes(topology);

  for (dag::TaskId task : order) {
    const net::NodeId processor = assignment[task.index()];
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
        comm.occupations = network.record(e).occupations;
      }
      data_ready = std::max(data_ready, comm.arrival);
      out.set_communication(e, std::move(comm));
    }
    const double duration =
        graph.weight(task) / topology.processor_speed(processor);
    const double start = machines.start_for(
        processor, data_ready, duration, options.task_insertion);
    machines.commit(processor, task, start, duration);
    out.place_task(task, TaskPlacement{processor, start, start + duration});
  }
  return out;
}

double assignment_makespan(const dag::TaskGraph& graph,
                           const net::Topology& topology,
                           const Assignment& assignment,
                           const AssignmentOptions& options) {
  return schedule_assignment(graph, topology, assignment, options)
      .makespan();
}

Assignment assignment_of(const dag::TaskGraph& graph,
                         const Schedule& schedule) {
  Assignment assignment(graph.num_tasks());
  for (dag::TaskId t : graph.all_tasks()) {
    assignment[t.index()] = schedule.task(t).processor;
  }
  return assignment;
}

}  // namespace edgesched::sched
