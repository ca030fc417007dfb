#include "sched/trace_export.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <vector>

#include "obs/trace.hpp"

namespace edgesched::sched {

namespace {

struct LinkEvent {
  net::DomainId domain;
  double start;
  double finish;
  std::string label;
};

std::vector<LinkEvent> collect_link_events(const dag::TaskGraph& graph,
                                           const net::Topology& topology,
                                           const Schedule& schedule) {
  std::vector<LinkEvent> events;
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = schedule.communication(e);
    const dag::Edge& edge = graph.edge(e);
    const std::string label = graph.name(edge.src) + "->" +
                              graph.name(edge.dst);
    if (comm.kind == Communication::Kind::kExclusive ||
        comm.kind == Communication::Kind::kPacketized) {
      for (const LinkOccupation& occ : comm.occupations) {
        if (occ.finish > occ.start) {
          events.push_back(LinkEvent{topology.domain(occ.link), occ.start,
                                     occ.finish, label});
        }
      }
    } else if (comm.kind == Communication::Kind::kBandwidth) {
      for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
        const timeline::RateProfileView profile = comm.profiles[i];
        if (!profile.empty()) {
          events.push_back(LinkEvent{topology.domain(comm.route[i]),
                                     profile.start_time(),
                                     profile.finish_time(), label});
        }
      }
    }
  }
  return events;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const dag::TaskGraph& graph,
                        const net::Topology& topology,
                        const Schedule& schedule) {
  obs::TraceEventWriter writer(out);
  for (net::NodeId p : topology.processors()) {
    writer.thread_name(0, p.value(), topology.node(p).name);
  }
  for (dag::TaskId t : graph.all_tasks()) {
    const TaskPlacement& placement = schedule.task(t);
    if (placement.placed()) {
      writer.complete(0, placement.processor.value(), graph.name(t),
                      placement.start, placement.finish - placement.start);
    }
  }
  for (const LinkEvent& ev :
       collect_link_events(graph, topology, schedule)) {
    writer.complete(1, ev.domain.value(), ev.label, ev.start,
                    ev.finish - ev.start);
  }
  writer.finish();
}

void write_ascii_gantt(std::ostream& out, const dag::TaskGraph& graph,
                       const net::Topology& topology,
                       const Schedule& schedule) {
  constexpr std::size_t width = 72;
  const double makespan = schedule.makespan();
  const auto column = [&](double t) {
    if (makespan <= 0.0) {
      return std::size_t{0};
    }
    const double f = std::clamp(t / makespan, 0.0, 1.0);
    return std::min(width - 1,
                    static_cast<std::size_t>(f * static_cast<double>(
                                                     width)));
  };
  const auto paint = [&](std::string& row, double start, double finish,
                         char mark) {
    const std::size_t a = column(start);
    const std::size_t b = column(std::nextafter(finish, start));
    for (std::size_t i = a; i <= b && i < width; ++i) {
      row[i] = mark;
    }
  };

  out << "gantt [" << schedule.algorithm()
      << "] makespan=" << makespan << ", full width = " << makespan
      << " time units\n";
  for (net::NodeId p : topology.processors()) {
    std::string row(width, '.');
    for (dag::TaskId t : graph.all_tasks()) {
      const TaskPlacement& placement = schedule.task(t);
      if (placement.placed() && placement.processor == p &&
          placement.finish > placement.start) {
        paint(row, placement.start, placement.finish, '#');
      }
    }
    out << "  " << topology.node(p).name;
    for (std::size_t pad = topology.node(p).name.size(); pad < 8; ++pad) {
      out << ' ';
    }
    out << '|' << row << "|\n";
  }
  std::map<net::DomainId, std::string> rows;
  for (const LinkEvent& ev : collect_link_events(graph, topology, schedule)) {
    auto [it, inserted] = rows.try_emplace(ev.domain, std::string(width, '.'));
    paint(it->second, ev.start, ev.finish, '=');
  }
  for (const auto& [domain, row] : rows) {
    std::string label = "D" + std::to_string(domain.value());
    out << "  " << label;
    for (std::size_t pad = label.size(); pad < 8; ++pad) {
      out << ' ';
    }
    out << '|' << row << "|\n";
  }
}

}  // namespace edgesched::sched
