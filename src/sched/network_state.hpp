// Mutable scheduling state over a network topology.
//
// `ExclusiveNetworkState` holds one exclusive `LinkTimeline` per
// contention domain plus, for every committed DAG edge, its per-link
// occupations (their links are the route), all in one arena — the
// information OIHSA's deferral slack (Lemma 2) is computed from. The
// state keeps each slot's slack in the slot: it writes it when an edge's
// record is complete and rewrites it when a deferral moves one of its
// inputs, so optimal insertion never looks a record up.
// `BandwidthNetworkState` is the BBSA counterpart with
// one `BandwidthTimeline` per domain. `MachineState` tracks the processor
// timelines and, per processor speed, a min-tree of their finish times.
// None of them copies: the Basic Algorithm's tentative
// per-processor evaluation commits into the one exclusive state and rolls
// back with `uncommit_edge`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dag/task_graph.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"
#include "timeline/bandwidth_timeline.hpp"
#include "timeline/link_timeline.hpp"
#include "timeline/optimal_insertion.hpp"
#include "timeline/processor_timeline.hpp"

namespace edgesched::sched {

class ExclusiveNetworkState {
 public:
  ExclusiveNetworkState(const net::Topology& topology,
                        std::size_t num_edges);

  /// Flushes accumulated probe/deferral/shift tallies into the global
  /// hot-path counters — one atomic add per counter per state lifetime,
  /// so the per-probe cost stays a plain integer increment.
  ~ExclusiveNetworkState();

  ExclusiveNetworkState(const ExclusiveNetworkState&) = delete;
  ExclusiveNetworkState& operator=(const ExclusiveNetworkState&) = delete;

  [[nodiscard]] const net::Topology& topology() const noexcept {
    return *topology_;
  }

  [[nodiscard]] const timeline::LinkTimeline& timeline(
      net::LinkId link) const {
    return domains_[topology_->domain(link).index()];
  }

  /// Basic-insertion probe of one link without committing — the modified
  /// routing algorithm's relaxation step (§4.3). Uses the precomputed
  /// per-link inverse speed, so each relaxation costs a multiply, not a
  /// divide.
  [[nodiscard]] timeline::Placement probe_link(net::LinkId link,
                                               double t_es_in,
                                               double t_f_min,
                                               double cost) const {
    return domains_[topology_->domain(link).index()].probe_basic(
        t_es_in, t_f_min, cost * inv_speed_[link.index()]);
  }

  /// Schedules the edge along `route` with first-fit insertion on every
  /// hop (Basic Algorithm, §3). Returns the arrival time at the route's
  /// final node. `ready` is the source task's finish time.
  double commit_edge_basic(dag::EdgeId edge, const net::Route& route,
                           double ready, double cost);

  /// Schedules the edge along `route` with optimal insertion (§4.4):
  /// already-booked slots may be deferred within their causality slack,
  /// and displaced edges' records are updated. Returns the arrival time.
  double commit_edge_optimal(dag::EdgeId edge, const net::Route& route,
                             double ready, double cost);

  /// A committed edge's occupations, hop by hop (packet by packet for
  /// packets); empty for an unscheduled edge. Valid until the next
  /// commit or uncommit.
  [[nodiscard]] std::span<const LinkOccupation> record(
      dag::EdgeId edge) const {
    EDGESCHED_ASSERT(edge.index() < records_.size());
    const Extent extent = records_[edge.index()];
    return std::span(occupations_).subspan(extent.begin, extent.size);
  }

  /// Removes a committed edge's slots and record. Only safe after
  /// `commit_edge_basic` (optimal insertion may have displaced other
  /// edges, which erasing cannot undo). This is the cheap rollback the
  /// Basic Algorithm's tentative per-processor evaluation relies on.
  void uncommit_edge(dag::EdgeId edge);

  /// Books `count` store-and-forward packets of `volume` each for a not
  /// yet booked `edge` along `route`, all ready at `ready`, in order: each
  /// hop of a packet may begin only after it fully crossed the previous
  /// hop. The edge's record holds every packet's occupations, packet by
  /// packet; returns the latest packet arrival at the route's end (at
  /// least `ready`).
  ///
  /// Each packet is first-fit on each hop as if booked alone, but its
  /// walk starts at the previous packet's slot on that hop: O(1) gaps per
  /// packet and hop instead of re-walking every earlier packet.
  double commit_packets(dag::EdgeId edge, const net::Route& route,
                        double ready, double volume, std::size_t count);

  /// Total busy time over all domains (network load statistic).
  [[nodiscard]] double total_busy_time() const noexcept;

 private:
  [[nodiscard]] timeline::LinkTimeline& timeline_of(net::LinkId link) {
    return domains_[topology_->domain(link).index()];
  }

  /// Writes the Lemma-2 slack of hop `hop` of `edge`'s complete record
  /// into its slot, found from `hint` (the position it was committed at)
  /// or by its start.
  void write_deferral(dag::EdgeId edge, std::size_t hop, std::size_t hint);

  /// The edge's record is complete: writes every hop's slack, trying the
  /// commit positions in `hop_positions_` first.
  void write_deferrals(dag::EdgeId edge);

  /// The edge's occupations are `occupations_` from `begin` on: records
  /// them and writes their slacks.
  void close_record(dag::EdgeId edge, std::size_t begin);

  /// Where an edge's occupations sit in `occupations_`; size 0 while
  /// the edge is not booked.
  struct Extent {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };

  const net::Topology* topology_;
  std::vector<timeline::LinkTimeline> domains_;  ///< by DomainId
  std::vector<Extent> records_;                  ///< by EdgeId
  /// Every record's occupations, in commit order. Rolling back the
  /// latest commit shrinks it; an older record's rollback leaves a hole.
  std::vector<LinkOccupation> occupations_;
  std::vector<double> inv_speed_;                ///< 1/s(L) by LinkId
  /// Reused optimal-insertion scratch: one shift buffer for the whole
  /// state instead of one heap allocation per probed hop.
  timeline::OptimalPlacement probe_scratch_;
  /// Per hop of the edge being committed, the slot index it was
  /// committed at (a hint: a later hop in the same domain may move it).
  std::vector<std::size_t> hop_positions_;
  // Hot-path tallies, batched into obs counters by the destructor.
  std::uint64_t slot_shifts_ = 0;
  std::uint64_t deferred_insertions_ = 0;
};

class BandwidthNetworkState {
 public:
  /// Throws std::invalid_argument when the links of one contention
  /// domain disagree on speed (a domain has one capacity).
  explicit BandwidthNetworkState(const net::Topology& topology);

  /// Flushes the accumulated bandwidth-probe and forward-step tallies
  /// into the global counters (same batching discipline as
  /// ExclusiveNetworkState).
  ~BandwidthNetworkState();

  BandwidthNetworkState(const BandwidthNetworkState&) = delete;
  BandwidthNetworkState& operator=(const BandwidthNetworkState&) = delete;

  [[nodiscard]] const net::Topology& topology() const noexcept {
    return *topology_;
  }

  [[nodiscard]] const timeline::BandwidthTimeline& timeline(
      net::LinkId link) const {
    return domains_[topology_->domain(link).index()];
  }

  /// Routing probe (§5, applied to §4.3 routing): the first moment any
  /// bandwidth is free at or after `t_es_in`, and the earliest finish of
  /// `cost` volume using all remaining bandwidth from there, no earlier
  /// than `t_f_min`.
  [[nodiscard]] net::ProbeResult probe(net::LinkId link, double t_es_in,
                                       double t_f_min, double cost) const;

  /// Schedules the edge along `route`: full remaining bandwidth on the
  /// first hop from `ready`, fluid forwarding on subsequent hops, all
  /// profiles committed. Returns (arrival, per-hop profiles); the
  /// profiles live in the state's scratch until the next commit.
  struct Transfer {
    double arrival = 0.0;
    std::span<const timeline::RateProfile> profiles;
  };
  Transfer commit_edge(const net::Route& route, double ready, double cost);

 private:
  const net::Topology* topology_;
  std::vector<timeline::BandwidthTimeline> domains_;  ///< by DomainId
  /// Per hop, the profile of the edge being committed: every commit
  /// reuses the segment buffers instead of allocating per hop.
  std::vector<timeline::RateProfile> profiles_;
};

/// Processor timelines, one per topology node (switch entries stay empty),
/// and per processor speed a min-tree over t_f(P) that answers the §4.1
/// MLS choice without scoring every processor.
class MachineState {
 public:
  /// One processor's §4.1 estimate max(ready, t_f(P)) + w / s(P).
  struct Estimate {
    net::NodeId processor;
    double score = 0.0;
  };

  explicit MachineState(const net::Topology& topology);

  /// Flushes the timelines' query tallies into the global hot-path
  /// counters, once per state lifetime (as ~ExclusiveNetworkState does).
  ~MachineState();

  MachineState(const MachineState&) = delete;
  MachineState& operator=(const MachineState&) = delete;

  /// The paper's task start (§2.1): t_s(n, P) = max(t_dr, t_f(P)) — tasks
  /// append after the processor's last finish, no insertion.
  [[nodiscard]] double append_start(net::NodeId processor,
                                    double ready) const;
  /// Insertion-policy earliest start (ablation alternative to the paper's
  /// append rule).
  [[nodiscard]] double earliest_start(net::NodeId processor, double ready,
                                      double duration) const;
  /// Start under the selected policy.
  [[nodiscard]] double start_for(net::NodeId processor, double ready,
                                 double duration, bool insertion) const {
    return insertion ? earliest_start(processor, ready, duration)
                     : append_start(processor, ready);
  }
  /// Books the task on a processor and updates its speed group's tree
  /// leaf in O(log P).
  void commit(net::NodeId processor, dag::TaskId task, double start,
              double duration);
  /// t_f(P): current finish time of the processor.
  [[nodiscard]] double finish_time(net::NodeId processor) const;

  /// The (score, processor id)-least of the speed groups' winners, each
  /// group scoring max(ready, t_f(P)) + weight / s with the same
  /// expression as a per-processor scan. A group's winner is its
  /// lowest-id processor at the group's least score: the score is
  /// monotone in t_f(P), so one descent of the group's tree finds it.
  /// O(G log P) for G distinct speeds; allocates nothing.
  [[nodiscard]] Estimate least_group_estimate(double ready,
                                              double weight) const;
  /// G: the number of distinct processor speeds (one winner each).
  [[nodiscard]] std::size_t num_speed_groups() const noexcept {
    return groups_.size();
  }

  /// Arena pre-sizing: gives every timeline capacity for about
  /// `per_processor_hint` slots so a run sized once up front commits
  /// without reallocation in the common balanced case.
  void reserve_slots(std::size_t per_processor_hint);

 private:
  /// The processors of one exact speed, in id order, as the leaves of a
  /// flat 1-based min-tree `tree_[offset + 1 .. offset + 2 * leaves)`;
  /// leaves past the members hold +inf.
  struct SpeedGroup {
    double speed = 0.0;
    std::size_t leaves = 0;  ///< a power of two
    std::size_t offset = 0;  ///< into tree_ and members_
  };
  /// Where a processor's t_f(P) lives: its group and leaf slot
  /// (`leaves <= slot < 2 * leaves`; 0 for switches).
  struct Leaf {
    std::uint32_t group = 0;
    std::uint32_t slot = 0;
  };

  std::vector<timeline::ProcessorTimeline> timelines_;  ///< by node index
  std::vector<SpeedGroup> groups_;
  std::vector<double> tree_;
  std::vector<net::NodeId> members_;  ///< leaf slots' processors, as tree_
  std::vector<Leaf> leaves_;          ///< by node index
};

}  // namespace edgesched::sched
