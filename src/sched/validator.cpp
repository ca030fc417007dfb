#include "sched/validator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

namespace edgesched::sched {

namespace {

class Reporter {
 public:
  template <typename... Parts>
  void add(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    violations_.push_back(os.str());
  }
  [[nodiscard]] std::vector<std::string> take() {
    return std::move(violations_);
  }

 private:
  std::vector<std::string> violations_;
};

void check_tasks(const dag::TaskGraph& graph, const net::Topology& topology,
                 const Schedule& schedule, double eps, Reporter& report) {
  for (dag::TaskId t : graph.all_tasks()) {
    const TaskPlacement& p = schedule.task(t);
    if (!p.placed()) {
      report.add("task ", t.value(), " is not placed");
      continue;
    }
    if (p.processor.index() >= topology.num_nodes() ||
        !topology.is_processor(p.processor)) {
      report.add("task ", t.value(), " placed on a non-processor node");
      continue;
    }
    if (p.start < -eps) {
      report.add("task ", t.value(), " starts before time 0");
    }
    const double expected =
        graph.weight(t) / topology.processor_speed(p.processor);
    if (std::abs((p.finish - p.start) - expected) > eps) {
      report.add("task ", t.value(), " duration ", p.finish - p.start,
                 " != w/s(P) = ", expected);
    }
  }
}

void check_processor_exclusivity(const dag::TaskGraph& graph,
                                 const Schedule& schedule, double eps,
                                 Reporter& report) {
  std::map<net::NodeId, std::vector<dag::TaskId>> by_processor;
  for (dag::TaskId t : graph.all_tasks()) {
    if (schedule.task(t).placed()) {
      by_processor[schedule.task(t).processor].push_back(t);
    }
  }
  for (auto& [proc, tasks] : by_processor) {
    // Tie-break equal starts by finish so a zero-duration task sharing
    // another task's start sorts before it instead of "overlapping" it.
    std::sort(tasks.begin(), tasks.end(), [&](dag::TaskId a, dag::TaskId b) {
      if (schedule.task(a).start != schedule.task(b).start) {
        return schedule.task(a).start < schedule.task(b).start;
      }
      return schedule.task(a).finish < schedule.task(b).finish;
    });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      const TaskPlacement& prev = schedule.task(tasks[i - 1]);
      const TaskPlacement& curr = schedule.task(tasks[i]);
      if (prev.finish > curr.start + eps) {
        report.add("tasks ", tasks[i - 1].value(), " and ",
                   tasks[i].value(), " overlap on processor ",
                   proc.value());
      }
    }
  }
}

void check_edge(const dag::TaskGraph& graph, const net::Topology& topology,
                const Schedule& schedule, dag::EdgeId e, double eps,
                bool allow_contention_free, Reporter& report) {
  const dag::Edge& edge = graph.edge(e);
  const Communication comm = schedule.communication(e);
  const TaskPlacement& src = schedule.task(edge.src);
  const TaskPlacement& dst = schedule.task(edge.dst);
  if (!src.placed() || !dst.placed()) {
    return;  // reported by check_tasks
  }
  const bool same_processor = src.processor == dst.processor;

  using Kind = Communication::Kind;
  switch (comm.kind) {
    case Kind::kLocal: {
      if (!same_processor && edge.cost > 0.0) {
        report.add("edge ", e.value(),
                   " marked local but endpoints on different processors");
      }
      if (dst.start < src.finish - eps) {
        report.add("edge ", e.value(),
                   " precedence violated: dst starts before src finishes");
      }
      break;
    }
    case Kind::kContentionFree: {
      if (!allow_contention_free) {
        report.add("edge ", e.value(),
                   " uses the contention-free model, which is disallowed");
        break;
      }
      if (comm.arrival < src.finish - eps) {
        report.add("edge ", e.value(), " arrives before the source finishes");
      }
      if (dst.start < comm.arrival - eps) {
        report.add("edge ", e.value(),
                   " destination starts before data arrival");
      }
      break;
    }
    case Kind::kExclusive: {
      try {
        topology.validate_route(comm.route, src.processor, dst.processor);
      } catch (const std::invalid_argument& broken) {
        report.add("edge ", e.value(), " route invalid: ", broken.what());
        break;
      }
      if (comm.occupations.size() != comm.route.size()) {
        report.add("edge ", e.value(),
                   " occupation count differs from route length");
        break;
      }
      double prev_es = src.finish;
      double prev_finish = 0.0;
      for (std::size_t i = 0; i < comm.route.size(); ++i) {
        const LinkOccupation& occ = comm.occupations[i];
        if (occ.link != comm.route[i]) {
          report.add("edge ", e.value(), " occupation ", i,
                     " on the wrong link");
        }
        const double duration =
            edge.cost / topology.link_speed(comm.route[i]);
        if (std::abs((occ.finish - occ.start) - duration) > eps) {
          report.add("edge ", e.value(), " slot on link ",
                     comm.route[i].value(), " has length ",
                     occ.finish - occ.start, " != c/s = ", duration);
        }
        // Link causality (§2.2): t_es and t_f are each non-decreasing
        // along the route. (The start times themselves may reorder after
        // OIHSA deferrals — the model constrains only these two series.)
        if (occ.earliest_start < prev_es - eps) {
          report.add("edge ", e.value(), " link causality violated on hop ",
                     i, ": t_es decreases");
        }
        if (occ.finish < prev_finish - eps) {
          report.add("edge ", e.value(), " link causality violated on hop ",
                     i, ": t_f decreases");
        }
        if (occ.start < occ.earliest_start - eps) {
          report.add("edge ", e.value(), " slot on hop ", i,
                     " starts before its earliest start");
        }
        prev_es = occ.earliest_start;
        prev_finish = occ.finish;
      }
      if (!comm.occupations.empty() &&
          std::abs(comm.arrival - comm.occupations.back().finish) > eps) {
        report.add("edge ", e.value(),
                   " arrival differs from last-hop finish");
      }
      if (dst.start < comm.arrival - eps) {
        report.add("edge ", e.value(),
                   " destination starts before data arrival");
      }
      break;
    }
    case Kind::kPacketized: {
      try {
        topology.validate_route(comm.route, src.processor, dst.processor);
      } catch (const std::invalid_argument& broken) {
        report.add("edge ", e.value(), " route invalid: ", broken.what());
        break;
      }
      const std::size_t hops = comm.route.size();
      if (comm.packet_count == 0 ||
          comm.occupations.size() != comm.packet_count * hops) {
        report.add("edge ", e.value(),
                   " packet occupation count does not match packet_count"
                   " x route length");
        break;
      }
      const double volume =
          edge.cost / static_cast<double>(comm.packet_count);
      double latest_arrival = 0.0;
      for (std::size_t p = 0; p < comm.packet_count; ++p) {
        double prev_finish = src.finish;
        for (std::size_t h = 0; h < hops; ++h) {
          const LinkOccupation& occ =
              comm.occupations[p * hops + h];
          if (occ.link != comm.route[h]) {
            report.add("edge ", e.value(), " packet ", p, " hop ", h,
                       " on the wrong link");
          }
          const double duration =
              volume / topology.link_speed(comm.route[h]);
          if (std::abs((occ.finish - occ.start) - duration) > eps) {
            report.add("edge ", e.value(), " packet ", p, " hop ", h,
                       " slot length ", occ.finish - occ.start,
                       " != volume/s = ", duration);
          }
          // Store-and-forward: a hop may begin only after the packet
          // fully crossed the previous one.
          if (occ.start < prev_finish - eps) {
            report.add("edge ", e.value(), " packet ", p, " hop ", h,
                       " starts before the previous hop finished");
          }
          prev_finish = occ.finish;
        }
        latest_arrival = std::max(latest_arrival, prev_finish);
      }
      if (std::abs(comm.arrival - latest_arrival) > eps) {
        report.add("edge ", e.value(),
                   " arrival differs from the last packet's finish");
      }
      if (dst.start < comm.arrival - eps) {
        report.add("edge ", e.value(),
                   " destination starts before data arrival");
      }
      break;
    }
    case Kind::kBandwidth: {
      try {
        topology.validate_route(comm.route, src.processor, dst.processor);
      } catch (const std::invalid_argument& broken) {
        report.add("edge ", e.value(), " route invalid: ", broken.what());
        break;
      }
      if (comm.profiles.size() != comm.route.size()) {
        report.add("edge ", e.value(),
                   " profile count differs from route length");
        break;
      }
      // The fluid sweep may drop sub-epsilon slivers at segment
      // boundaries; tolerate the resulting bounded volume drift.
      const double volume_eps =
          std::max(eps, 1e-5 * std::max(1.0, edge.cost));
      for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
        const timeline::RateProfileView profile = comm.profiles[i];
        if (std::abs(profile.volume() - edge.cost) > volume_eps) {
          report.add("edge ", e.value(), " hop ", i, " moves volume ",
                     profile.volume(), " != c(e) = ", edge.cost);
        }
        if (i == 0) {
          if (profile.start_time() < src.finish - eps) {
            report.add("edge ", e.value(),
                       " starts transferring before the source finishes");
          }
        } else {
          // Fluid causality: outflow never ahead of inflow. Check at all
          // breakpoints of both profiles.
          const timeline::RateProfileView inflow = comm.profiles[i - 1];
          std::vector<double> points = inflow.breakpoints();
          const std::vector<double> more = profile.breakpoints();
          points.insert(points.end(), more.begin(), more.end());
          std::sort(points.begin(), points.end());
          for (double t : points) {
            if (profile.cumulative(t) >
                inflow.cumulative(t) + volume_eps) {
              report.add("edge ", e.value(), " hop ", i,
                         " sends data before it arrives (t=", t, ")");
              break;
            }
          }
        }
      }
      if (!comm.profiles.empty() &&
          std::abs(comm.arrival - comm.profiles.back().finish_time()) >
              eps) {
        report.add("edge ", e.value(),
                   " arrival differs from last-hop transfer finish");
      }
      if (dst.start < comm.arrival - eps) {
        report.add("edge ", e.value(),
                   " destination starts before data arrival");
      }
      break;
    }
  }

  // Precedence holds in every model.
  if (dst.start < src.finish - eps) {
    report.add("edge ", e.value(),
               " precedence violated: destination starts at ", dst.start,
               " before source finish ", src.finish);
  }
}

void check_domain_capacity(const dag::TaskGraph& graph,
                           const net::Topology& topology,
                           const Schedule& schedule, double eps,
                           Reporter& report) {
  // Exclusive slots: per contention domain, intervals must be disjoint.
  std::map<net::DomainId, std::vector<std::pair<double, double>>> intervals;
  // Bandwidth profiles: per domain, summed rates must fit the capacity.
  struct RateEvent {
    double time;
    double delta;
  };
  std::map<net::DomainId, std::vector<RateEvent>> events;
  std::map<net::DomainId, double> capacity;

  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = schedule.communication(e);
    if (comm.kind == Communication::Kind::kExclusive ||
        comm.kind == Communication::Kind::kPacketized) {
      for (const LinkOccupation& occ : comm.occupations) {
        if (occ.finish - occ.start > eps) {
          intervals[topology.domain(occ.link)].emplace_back(occ.start,
                                                            occ.finish);
        }
      }
    } else if (comm.kind == Communication::Kind::kBandwidth) {
      for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
        const net::DomainId domain = topology.domain(comm.route[i]);
        capacity[domain] = topology.link_speed(comm.route[i]);
        for (const timeline::RateSegment& seg :
             comm.profiles[i].segments()) {
          events[domain].push_back(RateEvent{seg.start, seg.rate});
          events[domain].push_back(RateEvent{seg.end, -seg.rate});
        }
      }
    }
  }

  for (auto& [domain, list] : intervals) {
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1].second > list[i].first + eps) {
        report.add("contention domain ", domain.value(),
                   " has overlapping exclusive slots at t=", list[i].first);
        break;
      }
    }
  }

  for (auto& [domain, list] : events) {
    std::sort(list.begin(), list.end(),
              [](const RateEvent& a, const RateEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.delta < b.delta;  // process releases first
              });
    double load = 0.0;
    const double cap = capacity[domain];
    for (const RateEvent& ev : list) {
      load += ev.delta;
      if (load > cap + 1e-6 * std::max(1.0, cap)) {
        report.add("contention domain ", domain.value(),
                   " exceeds capacity at t=", ev.time, ": load ", load,
                   " > ", cap);
        break;
      }
    }
  }
}

/// NaN fails every tolerance comparison above, and so does inf - inf, so
/// a non-finite time would pass them all: report each one here.
void check_finite_times(const dag::TaskGraph& graph,
                        const Schedule& schedule, Reporter& report) {
  for (dag::TaskId t : graph.all_tasks()) {
    const TaskPlacement& p = schedule.task(t);
    if (p.placed() && !(std::isfinite(p.start) && std::isfinite(p.finish))) {
      report.add("task ", t.value(), " has a non-finite start or finish");
    }
  }
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = schedule.communication(e);
    bool finite = std::isfinite(comm.arrival);
    for (const LinkOccupation& occ : comm.occupations) {
      finite = finite && std::isfinite(occ.earliest_start) &&
               std::isfinite(occ.start) && std::isfinite(occ.finish);
    }
    for (std::size_t h = 0; h < comm.profiles.size(); ++h) {
      for (const timeline::RateSegment& seg : comm.profiles[h].segments()) {
        finite = finite && std::isfinite(seg.start) && std::isfinite(seg.end);
      }
    }
    if (!finite) {
      report.add("edge ", e.value(), " has a non-finite arrival or slot time");
    }
  }
  if (!std::isfinite(schedule.makespan())) {
    report.add("makespan ", schedule.makespan(), " is not finite");
  }
}

}  // namespace

std::vector<std::string> validate(const dag::TaskGraph& graph,
                                  const net::Topology& topology,
                                  const Schedule& schedule,
                                  const ValidationOptions& options) {
  Reporter report;
  const double eps = options.epsilon;
  if (schedule.num_tasks() != graph.num_tasks() ||
      schedule.num_edges() != graph.num_edges()) {
    report.add("schedule dimensions do not match the task graph");
    return report.take();
  }
  check_tasks(graph, topology, schedule, eps, report);
  check_processor_exclusivity(graph, schedule, eps, report);
  for (dag::EdgeId e : graph.all_edges()) {
    check_edge(graph, topology, schedule, e, eps,
               options.allow_contention_free, report);
  }
  check_domain_capacity(graph, topology, schedule, eps, report);
  check_finite_times(graph, schedule, report);

  // Makespan is derived, but algorithms report through it; re-derive.
  double latest = 0.0;
  for (dag::TaskId t : graph.all_tasks()) {
    if (schedule.task(t).placed()) {
      latest = std::max(latest, schedule.task(t).finish);
    }
  }
  if (std::abs(latest - schedule.makespan()) > eps) {
    report.add("makespan ", schedule.makespan(),
               " differs from the latest task finish ", latest);
  }
  return report.take();
}

bool is_valid(const dag::TaskGraph& graph, const net::Topology& topology,
              const Schedule& schedule, const ValidationOptions& options) {
  return validate(graph, topology, schedule, options).empty();
}

void validate_or_throw(const dag::TaskGraph& graph,
                       const net::Topology& topology,
                       const Schedule& schedule,
                       const ValidationOptions& options) {
  const std::vector<std::string> violations =
      validate(graph, topology, schedule, options);
  if (!violations.empty()) {
    std::ostringstream os;
    os << "invalid schedule from " << schedule.algorithm() << ":";
    for (const std::string& violation : violations) {
      os << "\n  - " << violation;
    }
    throw std::runtime_error(os.str());
  }
}

}  // namespace edgesched::sched
