#include "sched/network_state.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "obs/decision_log.hpp"

namespace edgesched::sched {

namespace {
constexpr double kEps = 1e-9;

/// Relative time tolerance for matching recorded occupations to slots.
double match_eps(double t) { return 1e-9 * std::max(1.0, std::abs(t)); }

/// `find_slot` hint for a slot whose position is not known.
constexpr std::size_t kNoHint = std::numeric_limits<std::size_t>::max();
}  // namespace

ExclusiveNetworkState::ExclusiveNetworkState(const net::Topology& topology,
                                             std::size_t num_edges)
    : topology_(&topology),
      domains_(topology.num_domains()),
      records_(num_edges) {
  // Hoist the per-probe division out of the hot path: relaxation probes
  // and commits consume cost * (1/s(L)) instead of cost / s(L).
  inv_speed_.reserve(topology.num_links());
  for (net::LinkId l : topology.all_links()) {
    inv_speed_.push_back(1.0 / topology.link_speed(l));
  }
}

ExclusiveNetworkState::~ExclusiveNetworkState() {
  std::uint64_t basic = 0;
  std::uint64_t optimal = 0;
  for (const timeline::LinkTimeline& tl : domains_) {
    basic += tl.probe_stats().basic_probes;
    optimal += tl.probe_stats().optimal_probes;
  }
  obs::HotCounters& counters = obs::hot_counters();
  std::uint64_t gap_steps = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t deferral_reads = 0;
  for (const timeline::LinkTimeline& tl : domains_) {
    gap_steps += tl.probe_stats().probe_gap_steps;
    scan_steps += tl.probe_stats().optimal_scan_steps;
    deferral_reads += tl.probe_stats().deferral_reads;
  }
  if (basic > 0) counters.link_probes.increment(basic);
  if (optimal > 0) counters.optimal_probes.increment(optimal);
  if (gap_steps > 0) counters.probe_gap_steps.increment(gap_steps);
  if (scan_steps > 0) counters.optimal_scan_steps.increment(scan_steps);
  if (deferral_reads > 0) {
    counters.deferral_scans.increment(deferral_reads);
  }
  if (slot_shifts_ > 0) counters.slot_shifts.increment(slot_shifts_);
  if (deferred_insertions_ > 0) {
    counters.deferred_insertions.increment(deferred_insertions_);
  }
}

double ExclusiveNetworkState::commit_edge_basic(dag::EdgeId edge,
                                                const net::Route& route,
                                                double ready, double cost) {
  EDGESCHED_ASSERT_MSG(!route.empty(), "cannot commit an edge on an empty "
                                       "route");
  EDGESCHED_ASSERT_MSG(records_[edge.index()].size == 0,
                       "edge committed twice");
  const std::size_t begin = occupations_.size();
  hop_positions_.clear();
  double t_es_in = ready;
  double t_f_min = 0.0;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const net::LinkId link = route[hop];
    const double duration = cost * inv_speed_[link.index()];
    timeline::LinkTimeline& tl = timeline_of(link);
    const timeline::Placement placement =
        tl.probe_basic(t_es_in, t_f_min, duration);
    tl.commit(placement, edge, static_cast<std::uint32_t>(hop));
    hop_positions_.push_back(placement.position);
    occupations_.push_back(LinkOccupation{
        link, placement.earliest_start, placement.start, placement.finish});
    // Cut-through: the next hop may start with this one and finishes no
    // earlier.
    t_es_in = placement.start;
    t_f_min = placement.finish;
  }
  close_record(edge, begin);
  return t_f_min;
}

double ExclusiveNetworkState::commit_edge_optimal(dag::EdgeId edge,
                                                  const net::Route& route,
                                                  double ready,
                                                  double cost) {
  EDGESCHED_ASSERT_MSG(!route.empty(), "cannot commit an edge on an empty "
                                       "route");
  EDGESCHED_ASSERT_MSG(records_[edge.index()].size == 0,
                       "edge committed twice");
  const std::size_t begin = occupations_.size();
  hop_positions_.clear();
  double t_es_in = ready;
  double t_f_min = 0.0;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const net::LinkId link = route[hop];
    const net::DomainId domain = topology_->domain(link);
    const double duration = cost * inv_speed_[link.index()];
    timeline::LinkTimeline& tl = domains_[domain.index()];
    timeline::OptimalPlacement& optimal = probe_scratch_;
    timeline::probe_optimal_into(tl, t_es_in, t_f_min, duration, optimal);

    // Displaced occupants: each slot names its occupation, which must
    // still hold the pre-shift slot times.
    double slack_consumed = 0.0;
    for (const timeline::SlotShift& shift : optimal.shifts) {
      const timeline::TimeSlot& old_slot = tl.slots()[shift.position];
      slack_consumed += shift.new_finish - old_slot.finish;
      const Extent displaced = records_[shift.edge.index()];
      EDGESCHED_ASSERT_MSG(old_slot.hop < displaced.size,
                           "displaced slot has no matching edge record");
      LinkOccupation& occ = occupations_[displaced.begin + old_slot.hop];
      EDGESCHED_ASSERT_MSG(
          topology_->domain(occ.link) == domain &&
              std::abs(occ.start - old_slot.start) <= match_eps(occ.start) &&
              std::abs(occ.finish - old_slot.finish) <=
                  match_eps(occ.finish),
          "displaced slot has no matching edge record");
      occ.earliest_start = shift.new_earliest_start;
      occ.start = shift.new_start;
      occ.finish = shift.new_finish;
    }
    timeline::commit_optimal(tl, optimal, edge,
                             static_cast<std::uint32_t>(hop));
    // The slot's slack is known once the record closes. Until then it
    // cannot be deferred: a route that crosses this domain again (a
    // partial bus) probes it on a later hop.
    tl.set_deferral(optimal.placement.position, 0.0);
    // A moved occupation is an input of its own slot's slack and of its
    // previous hop's. The new slot sits before every displaced one, so
    // each moved one step right.
    for (const timeline::SlotShift& shift : optimal.shifts) {
      const std::size_t at = shift.position + 1;
      const std::uint32_t moved = tl.slots()[at].hop;
      write_deferral(shift.edge, moved, at);
      if (moved > 0) {
        write_deferral(shift.edge, moved - 1, kNoHint);
      }
    }
    hop_positions_.push_back(optimal.placement.position);
    slot_shifts_ += optimal.shifts.size();
    if (!optimal.shifts.empty()) {
      ++deferred_insertions_;
    }
    if (obs::DecisionLog* log = obs::active_decision_log()) {
      log->record(obs::InsertionDecision{
          static_cast<std::uint32_t>(edge.index()),
          static_cast<std::uint32_t>(link.index()),
          /*deferral=*/!optimal.shifts.empty(),
          static_cast<std::uint32_t>(optimal.shifts.size()),
          slack_consumed, optimal.placement.start,
          optimal.placement.finish});
    }

    occupations_.push_back(LinkOccupation{
        link, optimal.placement.earliest_start, optimal.placement.start,
        optimal.placement.finish});
    t_es_in = optimal.placement.start;
    t_f_min = optimal.placement.finish;
  }
  close_record(edge, begin);
  return t_f_min;
}

double ExclusiveNetworkState::commit_packets(dag::EdgeId edge,
                                             const net::Route& route,
                                             double ready, double volume,
                                             std::size_t count) {
  EDGESCHED_ASSERT_MSG(!route.empty(),
                       "cannot commit a packet on an empty route");
  EDGESCHED_ASSERT_MSG(records_[edge.index()].size == 0,
                       "packets of a booked edge");
  const std::size_t begin = occupations_.size();
  const std::size_t hops = route.size();
  hop_positions_.clear();
  double latest = ready;
  for (std::size_t p = 0; p < count; ++p) {
    double arrival = ready;
    for (net::LinkId link : route) {
      const double duration = volume * inv_speed_[link.index()];
      timeline::LinkTimeline& tl = timeline_of(link);
      // Packet p - 1 took the first gap admitting it on this hop, with
      // the same duration and an earliest start no later than this
      // packet's (the same ready time on the first hop, an arrival no
      // later on the next), and no slot has been erased since. So no gap
      // ending before its slot's start admits this packet: the walk
      // starts at the gap just before that slot, which is still tried in
      // case a packet shorter than the timeline's tolerance fits there.
      const double skip_before =
          p == 0 ? 0.0 : occupations_[occupations_.size() - hops].start;
      // Store-and-forward: the packet is available at this hop only once
      // it fully crossed the previous one, so t_es = previous finish and
      // there is no cross-hop minimum-finish coupling.
      const timeline::Placement placement =
          tl.probe_basic(arrival, 0.0, duration, skip_before);
      // A packet hop's slot is named by its index in the record, which
      // lists every packet's occupations packet by packet.
      tl.commit(placement, edge,
                static_cast<std::uint32_t>(occupations_.size() - begin));
      hop_positions_.push_back(placement.position);
      occupations_.push_back(LinkOccupation{
          link, placement.earliest_start, placement.start, placement.finish});
      arrival = placement.finish;
    }
    latest = std::max(latest, arrival);
  }
  close_record(edge, begin);
  return latest;
}

void ExclusiveNetworkState::close_record(dag::EdgeId edge,
                                         std::size_t begin) {
  EDGESCHED_ASSERT(occupations_.size() <=
                   std::numeric_limits<std::uint32_t>::max());
  records_[edge.index()] =
      Extent{static_cast<std::uint32_t>(begin),
             static_cast<std::uint32_t>(occupations_.size() - begin)};
  write_deferrals(edge);
}

void ExclusiveNetworkState::uncommit_edge(dag::EdgeId edge) {
  const Extent extent = records_[edge.index()];
  EDGESCHED_ASSERT_MSG(extent.size > 0, "uncommit of unscheduled edge");
  for (std::size_t i = 0; i < extent.size; ++i) {
    const LinkOccupation& occ = occupations_[extent.begin + i];
    timeline::LinkTimeline& tl = timeline_of(occ.link);
    const std::size_t at = tl.find_slot(
        edge, static_cast<std::uint32_t>(i), occ.start, kNoHint);
    EDGESCHED_ASSERT_MSG(at < tl.size(), "uncommit could not find the slot");
    tl.erase(at);
  }
  if (extent.begin + extent.size == occupations_.size()) {
    occupations_.resize(extent.begin);
  }
  records_[edge.index()] = Extent{};
}

void ExclusiveNetworkState::write_deferral(dag::EdgeId edge,
                                           std::size_t hop,
                                           std::size_t hint) {
  const std::span<const LinkOccupation> record = this->record(edge);
  const LinkOccupation& occ = record[hop];
  timeline::LinkTimeline& tl = timeline_of(occ.link);
  const std::size_t at =
      tl.find_slot(edge, static_cast<std::uint32_t>(hop), occ.start, hint);
  EDGESCHED_ASSERT_MSG(at < tl.size(),
                       "slot has no matching occupation record");
  double slack = 0.0;  // last hop: the destination task depends on t_f here
  if (hop + 1 < record.size()) {
    const LinkOccupation& next = record[hop + 1];
    slack = std::max(0.0, std::min(next.earliest_start - occ.earliest_start,
                                   next.finish - occ.finish));
  }
  tl.set_deferral(at, slack);
}

void ExclusiveNetworkState::write_deferrals(dag::EdgeId edge) {
  for (std::size_t hop = 0; hop < hop_positions_.size(); ++hop) {
    write_deferral(edge, hop, hop_positions_[hop]);
  }
}

double ExclusiveNetworkState::total_busy_time() const noexcept {
  double busy = 0.0;
  for (const timeline::LinkTimeline& tl : domains_) {
    busy += tl.busy_time();
  }
  return busy;
}

BandwidthNetworkState::BandwidthNetworkState(const net::Topology& topology)
    : topology_(&topology) {
  domains_.reserve(topology.num_domains());
  // Domain capacity is its links' speed; builders give all links of a
  // shared domain one speed, but `add_link(…, domain)` does not check
  // it, so it is re-derived (and checked) here.
  std::vector<double> capacity(topology.num_domains(), -1.0);
  for (net::LinkId l : topology.all_links()) {
    double& slot = capacity[topology.domain(l).index()];
    const double speed = topology.link_speed(l);
    throw_if(slot >= 0.0 && std::abs(slot - speed) > kEps,
             "BandwidthNetworkState: links of one contention domain "
             "disagree on speed");
    slot = speed;
  }
  for (double c : capacity) {
    domains_.emplace_back(c > 0.0 ? c : 1.0);
  }
}

BandwidthNetworkState::~BandwidthNetworkState() {
  std::uint64_t probes = 0;
  std::uint64_t forward_steps = 0;
  for (const timeline::BandwidthTimeline& tl : domains_) {
    probes += tl.probe_count();
    forward_steps += tl.forward_steps();
  }
  if (probes > 0) {
    obs::hot_counters().bandwidth_probes.increment(probes);
  }
  if (forward_steps > 0) {
    obs::hot_counters().forward_steps.increment(forward_steps);
  }
}

net::ProbeResult BandwidthNetworkState::probe(net::LinkId link,
                                              double t_es_in, double t_f_min,
                                              double cost) const {
  const timeline::BandwidthTimeline::Probe p =
      domains_[topology_->domain(link).index()].probe(t_es_in, cost);
  return net::ProbeResult{p.first_flow, std::max(p.finish, t_f_min)};
}

BandwidthNetworkState::Transfer BandwidthNetworkState::commit_edge(
    const net::Route& route, double ready, double cost) {
  EDGESCHED_ASSERT_MSG(!route.empty(), "cannot commit an edge on an empty "
                                       "route");
  if (profiles_.size() < route.size()) {
    profiles_.resize(route.size());
  }
  for (std::size_t i = 0; i < route.size(); ++i) {
    timeline::BandwidthTimeline& tl =
        domains_[topology_->domain(route[i]).index()];
    timeline::RateProfile& profile = profiles_[i];
    if (i == 0) {
      tl.transfer_from(ready, cost, profile);
    } else {
      tl.forward(profiles_[i - 1], profile);
    }
    tl.consume(profile);
  }
  const std::span<const timeline::RateProfile> profiles(profiles_.data(),
                                                        route.size());
  return Transfer{profiles.back().finish_time(), profiles};
}

MachineState::MachineState(const net::Topology& topology)
    : timelines_(topology.num_nodes()), leaves_(topology.num_nodes()) {
  // Group by exact speed with one sort, O(P log P); each group's members
  // stay in id order, which is processors() order.
  std::vector<net::NodeId> by_speed = topology.processors();
  std::sort(by_speed.begin(), by_speed.end(),
            [&topology](net::NodeId a, net::NodeId b) {
              const double sa = topology.processor_speed(a);
              const double sb = topology.processor_speed(b);
              return sa < sb || (sa == sb && a < b);
            });
  for (std::size_t begin = 0; begin < by_speed.size();) {
    const double speed = topology.processor_speed(by_speed[begin]);
    std::size_t end = begin + 1;
    while (end < by_speed.size() &&
           topology.processor_speed(by_speed[end]) == speed) {
      ++end;
    }
    const SpeedGroup group{speed, std::bit_ceil(end - begin), tree_.size()};
    tree_.resize(group.offset + 2 * group.leaves,
                 std::numeric_limits<double>::infinity());
    members_.resize(tree_.size());
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t slot = group.leaves + (i - begin);
      tree_[group.offset + slot] = 0.0;  // idle: t_f(P) = 0
      members_[group.offset + slot] = by_speed[i];
      leaves_[by_speed[i].index()] =
          Leaf{static_cast<std::uint32_t>(groups_.size()),
               static_cast<std::uint32_t>(slot)};
    }
    for (std::size_t k = group.leaves - 1; k >= 1; --k) {
      tree_[group.offset + k] = std::min(tree_[group.offset + 2 * k],
                                         tree_[group.offset + 2 * k + 1]);
    }
    groups_.push_back(group);
    begin = end;
  }
}

MachineState::~MachineState() {
  std::uint64_t queries = 0;
  std::uint64_t gap_steps = 0;
  for (const timeline::ProcessorTimeline& tl : timelines_) {
    queries += tl.query_stats().queries;
    gap_steps += tl.query_stats().gap_steps;
  }
  obs::HotCounters& counters = obs::hot_counters();
  if (queries > 0) counters.processor_queries.increment(queries);
  if (gap_steps > 0) counters.processor_gap_steps.increment(gap_steps);
}

double MachineState::append_start(net::NodeId processor,
                                  double ready) const {
  EDGESCHED_ASSERT(processor.index() < timelines_.size());
  return std::max(ready, timelines_[processor.index()].last_finish());
}

double MachineState::earliest_start(net::NodeId processor, double ready,
                                    double duration) const {
  EDGESCHED_ASSERT(processor.index() < timelines_.size());
  return timelines_[processor.index()].earliest_start(ready, duration);
}

void MachineState::commit(net::NodeId processor, dag::TaskId task,
                          double start, double duration) {
  EDGESCHED_ASSERT(processor.index() < timelines_.size());
  timeline::ProcessorTimeline& tl = timelines_[processor.index()];
  tl.commit(task, start, duration);
  const Leaf leaf = leaves_[processor.index()];
  EDGESCHED_ASSERT_MSG(leaf.slot != 0, "task committed to a switch");
  double* const tree = tree_.data() + groups_[leaf.group].offset;
  std::size_t k = leaf.slot;
  tree[k] = tl.last_finish();
  // Walk up until a node's minimum no longer changes.
  for (k /= 2; k >= 1; k /= 2) {
    const double least = std::min(tree[2 * k], tree[2 * k + 1]);
    if (tree[k] == least) {
      break;
    }
    tree[k] = least;
  }
}

double MachineState::finish_time(net::NodeId processor) const {
  EDGESCHED_ASSERT(processor.index() < timelines_.size());
  return timelines_[processor.index()].last_finish();
}

MachineState::Estimate MachineState::least_group_estimate(
    double ready, double weight) const {
  Estimate best{net::NodeId(), std::numeric_limits<double>::infinity()};
  for (const SpeedGroup& group : groups_) {
    const double* const tree = tree_.data() + group.offset;
    const double duration = weight / group.speed;
    const double least = std::max(ready, tree[1]) + duration;
    // The score is monotone in t_f(P), so a subtree's least score is its
    // minimum's score: descend to the leftmost leaf scoring <= least.
    // Padding leaves score +inf and sit right of every member, so they
    // are reached only when no member scores below +inf, never first.
    std::size_t k = 1;
    while (k < group.leaves) {
      k *= 2;
      if (!(std::max(ready, tree[k]) + duration <= least)) {
        ++k;
      }
    }
    const net::NodeId winner = members_[group.offset + k];
    if (!best.processor.valid() || least < best.score ||
        (least == best.score && winner < best.processor)) {
      best = Estimate{winner, least};
    }
  }
  return best;
}

void MachineState::reserve_slots(std::size_t per_processor_hint) {
  for (timeline::ProcessorTimeline& tl : timelines_) {
    tl.reserve(per_processor_hint);
  }
}

}  // namespace edgesched::sched
