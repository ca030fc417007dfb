#include "sched/classic.hpp"

#include <algorithm>
#include <limits>

#include "sched/network_state.hpp"
#include "sched/platform.hpp"
#include "sched/priorities.hpp"

namespace edgesched::sched {

namespace {

/// Assumed transfer speed between two distinct processors in the
/// idealised model: the direct link's speed when one exists, otherwise
/// the mean link speed.
double assumed_speed(const net::Topology& topology, net::NodeId from,
                     net::NodeId to, double mls) {
  for (net::LinkId l : topology.out_links(from)) {
    if (topology.link(l).dst == to) {
      return topology.link_speed(l);
    }
  }
  return mls > 0.0 ? mls : 1.0;
}

}  // namespace

Schedule ClassicScheduler::schedule(const dag::TaskGraph& graph,
                                    const PlatformContext& platform) const {
  const net::Topology& topology = platform.topology();
  check_inputs(topology);
  Schedule out(name(), graph.num_tasks(), graph.num_edges());

  const std::vector<dag::TaskId> order =
      list_order(graph, PriorityScheme::kBottomLevel);
  MachineState machines(topology);
  const double mls = platform.mean_link_speed();

  for (dag::TaskId task : order) {
    const double weight = graph.weight(task);

    net::NodeId chosen;
    double chosen_finish = std::numeric_limits<double>::infinity();
    double chosen_start = 0.0;
    std::vector<double> chosen_arrivals;

    for (net::NodeId processor : topology.processors()) {
      std::vector<double> arrivals;
      arrivals.reserve(graph.in_edges(task).size());
      double data_ready = 0.0;
      for (dag::EdgeId e : graph.in_edges(task)) {
        const dag::Edge& edge = graph.edge(e);
        const TaskPlacement& src = out.task(edge.src);
        double arrival = src.finish;
        if (src.processor != processor && edge.cost > 0.0) {
          arrival += edge.cost / assumed_speed(topology, src.processor,
                                               processor, mls);
        }
        arrivals.push_back(arrival);
        data_ready = std::max(data_ready, arrival);
      }
      const double duration = weight / topology.processor_speed(processor);
      const double start = machines.start_for(
          processor, data_ready, duration, /*task_insertion=*/true);
      const double finish = start + duration;
      if (finish < chosen_finish) {
        chosen = processor;
        chosen_finish = finish;
        chosen_start = start;
        chosen_arrivals = std::move(arrivals);
      }
    }

    const double duration = weight / topology.processor_speed(chosen);
    machines.commit(chosen, task, chosen_start, duration);
    out.place_task(task,
                   TaskPlacement{chosen, chosen_start, chosen_finish});

    const std::span<const dag::EdgeId> in = graph.in_edges(task);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const dag::Edge& edge = graph.edge(in[i]);
      const TaskPlacement& src = out.task(edge.src);
      out.set_communication(in[i],
                            (src.processor == chosen || edge.cost <= 0.0)
                                ? Communication::Kind::kLocal
                                : Communication::Kind::kContentionFree,
                            chosen_arrivals[i]);
    }
  }
  return out;
}

}  // namespace edgesched::sched
