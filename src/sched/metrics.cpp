#include "sched/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "sched/lower_bounds.hpp"

namespace edgesched::sched {

std::vector<double> domain_busy_times(const dag::TaskGraph& graph,
                                      const net::Topology& topology,
                                      const Schedule& schedule) {
  std::vector<double> busy(topology.num_domains(), 0.0);
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = schedule.communication(e);
    if (comm.kind == Communication::Kind::kExclusive ||
        comm.kind == Communication::Kind::kPacketized) {
      for (const LinkOccupation& occ : comm.occupations) {
        busy[topology.domain(occ.link).index()] +=
            occ.finish - occ.start;
      }
    } else if (comm.kind == Communication::Kind::kBandwidth) {
      for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
        // Busy time weighted by the used bandwidth fraction, so a
        // half-rate transfer counts half.
        const double capacity = topology.link_speed(comm.route[i]);
        busy[topology.domain(comm.route[i]).index()] +=
            comm.profiles[i].volume() / capacity;
      }
    }
  }
  return busy;
}

ScheduleMetrics compute_metrics(const dag::TaskGraph& graph,
                                const net::Topology& topology,
                                const Schedule& schedule) {
  ScheduleMetrics m;
  m.makespan = schedule.makespan();

  const double cp_bound = critical_path_bound(graph, topology);
  m.slr = cp_bound > 0.0 ? m.makespan / cp_bound : 0.0;

  double fastest = 0.0;
  for (net::NodeId p : topology.processors()) {
    fastest = std::max(fastest, topology.processor_speed(p));
  }
  const double serial =
      fastest > 0.0 ? graph.total_computation() / fastest : 0.0;
  m.speedup = m.makespan > 0.0 ? serial / m.makespan : 0.0;
  m.efficiency =
      topology.num_processors() > 0
          ? m.speedup / static_cast<double>(topology.num_processors())
          : 0.0;

  double busy = 0.0;
  for (dag::TaskId t : graph.all_tasks()) {
    const TaskPlacement& p = schedule.task(t);
    if (p.placed()) {
      busy += p.finish - p.start;
    }
  }
  m.processor_utilisation =
      (m.makespan > 0.0 && topology.num_processors() > 0)
          ? busy / (m.makespan *
                    static_cast<double>(topology.num_processors()))
          : 0.0;

  const std::vector<double> domain_busy =
      domain_busy_times(graph, topology, schedule);
  for (double b : domain_busy) {
    m.network_busy_time += b;
  }
  m.link_utilisation =
      (m.makespan > 0.0 && !domain_busy.empty())
          ? m.network_busy_time /
                (m.makespan * static_cast<double>(domain_busy.size()))
          : 0.0;

  double hops = 0.0;
  double delay = 0.0;
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = schedule.communication(e);
    if (comm.kind == Communication::Kind::kLocal) {
      ++m.local_edges;
    } else {
      ++m.remote_edges;
      hops += static_cast<double>(comm.route.size());
      delay += comm.arrival -
               schedule.task(graph.edge(e).src).finish;
    }
  }
  if (m.remote_edges > 0) {
    m.mean_route_length =
        hops / static_cast<double>(m.remote_edges);
    m.mean_communication_delay =
        delay / static_cast<double>(m.remote_edges);
  }
  return m;
}

std::string to_string(const ScheduleMetrics& m) {
  std::ostringstream os;
  os << "makespan              " << m.makespan << "\n"
     << "SLR                   " << m.slr << "\n"
     << "speedup               " << m.speedup << "\n"
     << "efficiency            " << m.efficiency << "\n"
     << "processor utilisation " << m.processor_utilisation << "\n"
     << "network busy time     " << m.network_busy_time << "\n"
     << "link utilisation      " << m.link_utilisation << "\n"
     << "local / remote edges  " << m.local_edges << " / "
     << m.remote_edges << "\n"
     << "mean route length     " << m.mean_route_length << "\n"
     << "mean comm delay       " << m.mean_communication_delay << "\n";
  return os.str();
}

}  // namespace edgesched::sched
