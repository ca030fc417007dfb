#include "sched/assignment.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "net/routing.hpp"
#include "sched/network_state.hpp"
#include "sched/priorities.hpp"

namespace edgesched::sched {

namespace {

/// Realises `assignment` with tasks taken in `order` (a topological
/// order): every task's communications leave at its ready moment (the
/// dynamic model of §4.1) over minimal BFS routes with first-fit link
/// insertion, and the task starts at the placement rule's earliest start
/// after its data arrive. `caller` prefixes the input errors.
Schedule realise(const dag::TaskGraph& graph, const net::Topology& topology,
                 const Assignment& assignment,
                 const std::vector<dag::TaskId>& order, std::string label,
                 const std::string& caller) {
  throw_if(assignment.size() != graph.num_tasks(),
           caller + ": assignment size mismatch");
  const bool on_processors = std::all_of(
      assignment.begin(), assignment.end(), [&](net::NodeId p) {
        return p.valid() && p.index() < topology.num_nodes() &&
               topology.is_processor(p);
      });
  throw_if(!on_processors, caller + ": assignment names a non-processor");

  Schedule out(std::move(label), graph.num_tasks(), graph.num_edges());
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
      double arrival = src.finish;
      if (src.processor == processor || edge.cost <= 0.0) {
        out.set_communication(e, Communication::Kind::kLocal, arrival);
      } else {
        const net::Route& route = routes.route(src.processor, processor);
        arrival =
            network.commit_edge_basic(e, route, ready_moment, edge.cost);
        out.set_communication(e, Communication::Kind::kExclusive, arrival,
                              route, network.record(e));
      }
      data_ready = std::max(data_ready, arrival);
    }
    const double duration =
        graph.weight(task) / topology.processor_speed(processor);
    const double start =
        machines.start_for(processor, data_ready, duration,
                           /*task_insertion=*/true);
    machines.commit(processor, task, start, duration);
    out.place_task(task, TaskPlacement{processor, start, start + duration});
  }
  out.shrink_to_fit();
  return out;
}

}  // namespace

Schedule schedule_assignment(const dag::TaskGraph& graph,
                             const net::Topology& topology,
                             const Assignment& assignment,
                             std::string label) {
  return realise(graph, topology, assignment,
                 list_order(graph, PriorityScheme::kBottomLevel),
                 std::move(label), "schedule_assignment");
}

double assignment_makespan(const dag::TaskGraph& graph,
                           const net::Topology& topology,
                           const Assignment& assignment) {
  return schedule_assignment(graph, topology, assignment).makespan();
}

Schedule replay_under_contention(const dag::TaskGraph& graph,
                                 const net::Topology& topology,
                                 const Schedule& ideal) {
  throw_if(ideal.num_tasks() != graph.num_tasks(),
           "replay_under_contention: schedule does not match the graph");
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
  return realise(graph, topology, assignment_of(graph, ideal), order,
                 ideal.algorithm() + "-replay", "replay_under_contention");
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
