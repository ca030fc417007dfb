#include "sched/schedule.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>


namespace edgesched::sched {

Schedule::Schedule(std::string algorithm, std::size_t num_tasks,
                   std::size_t num_edges)
    : algorithm_(std::move(algorithm)),
      tasks_(num_tasks),
      edges_(num_edges) {}

void Schedule::place_task(dag::TaskId task, const TaskPlacement& placement) {
  EDGESCHED_ASSERT(task.index() < tasks_.size());
  EDGESCHED_ASSERT_MSG(!tasks_[task.index()].placed(),
                       "task placed twice");
  tasks_[task.index()] = placement;
}

namespace {

/// Appends `items` to `arena`; returns where they start.
template <typename T>
std::uint32_t append(std::vector<T>& arena, std::span<const T> items) {
  const std::size_t at = arena.size();
  throw_if(at + items.size() > std::numeric_limits<std::uint32_t>::max(),
           "Schedule: edge data exceeds the 32-bit arena offsets");
  arena.insert(arena.end(), items.begin(), items.end());
  return static_cast<std::uint32_t>(at);
}

}  // namespace

void Schedule::set_communication(
    dag::EdgeId edge, Communication::Kind kind, double arrival,
    std::span<const net::LinkId> route,
    std::span<const LinkOccupation> occupations, std::size_t packet_count,
    std::span<const timeline::RateProfile> profiles) {
  EDGESCHED_ASSERT(edge.index() < edges_.size());
  throw_if(!occupations.empty() && !profiles.empty(),
           "Schedule: an edge carries occupations or rate profiles, not both");
  const std::size_t payload_size = occupations.size() + profiles.size();
  throw_if(route.size() > std::numeric_limits<std::uint16_t>::max() ||
               packet_count > std::numeric_limits<std::uint16_t>::max() ||
               payload_size >= (1u << 24),
           "Schedule: edge communication too large to record");
  EdgeRecord& record = edges_[edge.index()];
  record.arrival = arrival;
  record.route = append(routes_, route);
  record.payload_size = static_cast<std::uint32_t>(payload_size);
  record.kind = static_cast<std::uint32_t>(kind);
  record.profiles = profiles.empty() ? 0 : 1;
  record.hops = static_cast<std::uint16_t>(route.size());
  record.packet_count = static_cast<std::uint16_t>(packet_count);
  if (profiles.empty()) {
    record.payload = append(occupations_, occupations);
    return;
  }
  record.payload = static_cast<std::uint32_t>(bounds_.size());
  for (const timeline::RateProfile& profile : profiles) {
    bounds_.push_back(append(segments_, profile.segments()));
  }
  bounds_.push_back(static_cast<std::uint32_t>(segments_.size()));
}

void Schedule::reserve(std::size_t route_links, std::size_t occupations) {
  routes_.reserve(routes_.size() + route_links);
  occupations_.reserve(occupations_.size() + occupations);
}

void Schedule::shrink_to_fit() {
  routes_.shrink_to_fit();
  occupations_.shrink_to_fit();
  segments_.shrink_to_fit();
  bounds_.shrink_to_fit();
}

Communication Schedule::communication(dag::EdgeId id) const {
  EDGESCHED_ASSERT(id.index() < edges_.size());
  const EdgeRecord& record = edges_[id.index()];
  Communication comm;
  comm.kind = static_cast<Communication::Kind>(record.kind);
  comm.arrival = record.arrival;
  comm.packet_count = record.packet_count;
  comm.route = std::span(routes_).subspan(record.route, record.hops);
  if (record.profiles != 0) {
    comm.profiles = timeline::RateProfileList(
        segments_,
        std::span(bounds_).subspan(record.payload, record.payload_size + 1));
  } else {
    comm.occupations =
        std::span(occupations_).subspan(record.payload, record.payload_size);
  }
  return comm;
}

double Schedule::makespan() const noexcept {
  double latest = 0.0;
  for (const TaskPlacement& placement : tasks_) {
    latest = std::max(latest, placement.finish);
  }
  return latest;
}


std::string Schedule::to_string(const dag::TaskGraph& graph,
                                const net::Topology& topology) const {
  std::ostringstream os;
  os << "schedule[" << algorithm_ << "] makespan=" << makespan() << "\n";
  // Group tasks by processor, ordered by start time.
  std::map<net::NodeId, std::vector<dag::TaskId>> by_processor;
  for (dag::TaskId t : graph.all_tasks()) {
    if (tasks_[t.index()].placed()) {
      by_processor[tasks_[t.index()].processor].push_back(t);
    }
  }
  for (auto& [proc, task_list] : by_processor) {
    std::sort(task_list.begin(), task_list.end(),
              [&](dag::TaskId a, dag::TaskId b) {
                return tasks_[a.index()].start < tasks_[b.index()].start;
              });
    os << "  " << topology.node(proc).name << ":";
    for (dag::TaskId t : task_list) {
      const TaskPlacement& p = tasks_[t.index()];
      os << ' ' << graph.name(t) << "[" << p.start << ',' << p.finish
         << ')';
    }
    os << "\n";
  }
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = communication(e);
    if (comm.kind == Communication::Kind::kLocal) {
      continue;
    }
    const dag::Edge& edge = graph.edge(e);
    os << "  edge " << graph.name(edge.src) << "->"
       << graph.name(edge.dst) << " arrival=" << comm.arrival;
    if (comm.kind == Communication::Kind::kExclusive) {
      for (const LinkOccupation& occ : comm.occupations) {
        os << " L" << occ.link.value() << "[" << occ.start << ','
           << occ.finish << ')';
      }
    } else if (comm.kind == Communication::Kind::kPacketized) {
      os << " packets=" << comm.packet_count;
    } else if (comm.kind == Communication::Kind::kBandwidth) {
      for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
        os << " L" << comm.route[i].value() << "(v="
           << comm.profiles[i].volume() << ")";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace edgesched::sched
