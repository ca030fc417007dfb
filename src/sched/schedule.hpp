// Schedule result types.
//
// A `Schedule` fixes, for every task, a processor and an execution
// interval, and, for every DAG edge, how its communication crosses the
// network: locally (same processor), as exclusive per-link time slots
// (BA / OIHSA), as bandwidth-sharing rate profiles (BBSA), or idealised
// (the classic contention-free model, which books no link resources).
// The independent checker lives in validator.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "timeline/rate_profile.hpp"

namespace edgesched::sched {

/// Where and when a task executes.
struct TaskPlacement {
  net::NodeId processor;
  double start = 0.0;
  double finish = 0.0;

  [[nodiscard]] bool placed() const noexcept { return processor.valid(); }
};

/// An edge's occupation of one link in the exclusive model.
struct LinkOccupation {
  net::LinkId link;
  double earliest_start = 0.0;  ///< t_es(e, L)
  double start = 0.0;           ///< t_s(e, L); the slot is [start, finish]
  double finish = 0.0;          ///< t_f(e, L)
};

/// How one DAG edge's communication was realised: a read-only view
/// into the owning `Schedule`'s arenas, valid while that schedule lives
/// and until its next `set_communication` or `shrink_to_fit`.
struct Communication {
  enum class Kind : std::uint8_t {
    kLocal,          ///< same processor: free, instantaneous
    kExclusive,      ///< per-link exclusive time slots (BA, OIHSA)
    kBandwidth,      ///< per-link rate profiles (BBSA)
    kPacketized,     ///< store-and-forward packets on exclusive slots
    kContentionFree  ///< idealised model: duration c(e)/speed, no links
  };

  Kind kind = Kind::kLocal;
  std::span<const net::LinkId> route;  ///< empty for kLocal / kContentionFree
  /// Exclusive model: one occupation per route link. Packetized model:
  /// packet-major layout — occupation p·|route|+h is packet p on hop h.
  std::span<const LinkOccupation> occupations;
  /// Bandwidth model: one transfer profile per route link.
  timeline::RateProfileList profiles;
  /// Packetized model: number of equal-volume packets (0 otherwise).
  std::size_t packet_count = 0;
  /// When the data is completely available at the destination processor.
  double arrival = 0.0;
};

/// A complete scheduling result for one (graph, topology) instance.
class Schedule {
 public:
  Schedule(std::string algorithm, std::size_t num_tasks,
           std::size_t num_edges);

  void place_task(dag::TaskId task, const TaskPlacement& placement);

  /// Records how `edge` communicates, copying the payload into the
  /// schedule's arenas: occupations (exclusive, packetized) or rate
  /// profiles (bandwidth), never both; the spans must not point into
  /// this schedule. Setting an edge again replaces its record; the
  /// arenas keep the old payload until the schedule is copied.
  void set_communication(
      dag::EdgeId edge, Communication::Kind kind, double arrival,
      std::span<const net::LinkId> route = {},
      std::span<const LinkOccupation> occupations = {},
      std::size_t packet_count = 0,
      std::span<const timeline::RateProfile> profiles = {});

  /// Room for `route_links` links and `occupations` occupations more,
  /// for a writer that knows what it is about to append.
  void reserve(std::size_t route_links, std::size_t occupations);

  /// Drops the arenas' growth slack; writers call it once a run ends.
  void shrink_to_fit();

  [[nodiscard]] const TaskPlacement& task(dag::TaskId id) const {
    EDGESCHED_ASSERT(id.index() < tasks_.size());
    return tasks_[id.index()];
  }
  [[nodiscard]] Communication communication(dag::EdgeId id) const;

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }

  /// Latest task finish time; 0 for an empty schedule.
  [[nodiscard]] double makespan() const noexcept;

  /// Name of the algorithm that produced this schedule.
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }

  /// Human-readable Gantt-style dump (one line per task, then per edge).
  [[nodiscard]] std::string to_string(const dag::TaskGraph& graph,
                                      const net::Topology& topology) const;

 private:
  /// One edge's communication: 24 bytes, its payload in the arenas.
  struct EdgeRecord {
    double arrival = 0.0;
    std::uint32_t route = 0;    ///< first link in routes_
    std::uint32_t payload = 0;  ///< first occupation, or first bound
    std::uint32_t payload_size : 24 = 0;  ///< occupations or profiles
    std::uint32_t kind : 7 = 0;
    std::uint32_t profiles : 1 = 0;  ///< the payload is rate profiles
    std::uint16_t hops = 0;
    std::uint16_t packet_count = 0;
  };

  std::string algorithm_;
  std::vector<TaskPlacement> tasks_;
  std::vector<EdgeRecord> edges_;
  // Arenas, appended in commit order.
  std::vector<net::LinkId> routes_;
  std::vector<LinkOccupation> occupations_;
  std::vector<timeline::RateSegment> segments_;
  /// Per bandwidth edge, its profiles' first segments and one past the
  /// last: profile i spans segments_[bounds_[payload + i],
  /// bounds_[payload + i + 1]).
  std::vector<std::uint32_t> bounds_;
};

}  // namespace edgesched::sched
