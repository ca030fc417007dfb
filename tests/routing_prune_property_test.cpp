// Exactness of the pruned modified-routing search (§4.3).
//
// `net::dijkstra_route_probe` walks a `net::TransitAdjacency`: a popped
// node relaxes only its transit arcs, plus the target's links from its
// parent when the target is a stub (a node whose only out-link leads
// back). The claim is that this changes no route and no relaxation
// count against the search it replaced, which walked every out-link and
// skipped, per relaxation, a non-target node whose only out-link leads
// back to the node being expanded. This suite keeps two local oracles:
//
//   * the unpruned search over every out-link, and
//   * that per-relaxation dead-end search, verbatim apart from local
//     scratch,
//
// and compares them with the production search on every `net::builders`
// topology, idle and under seeded random link loads, for both network
// models' probes:
//
//   * the exclusive basic-insertion probe (`probe_link`), and
//   * the bandwidth probe (`BandwidthNetworkState::probe`).
//
// For every processor pair the routes must be equal to both oracles'
// and the relaxation count equal to the dead-end oracle's, never above
// the unpruned one's. Where every processor relays traffic the prune can
// never fire, so all three counts must be equal. Hand-built cases cover
// the stub corner cases: two nodes that are each other's stub, a stub
// source, parallel links into a stub target, a stub also reachable from
// a non-parent, and a two-member bus.
//
// `net::goal_directed_route_probe`, the search BBSA's bandwidth probe
// uses, pops ties in order of hops plus a hop bound to the target and
// keeps, on an equal label, the predecessor plain Dijkstra pops first.
// Its routes and target labels must equal the unpruned oracle's bit for
// bit, with no more relaxations, on loaded seeded tori, hypercubes, rings,
// meshes and WANs, and under a tie-heavy integer-cost probe on the same
// fabrics. A guard case shows why the exclusive probe keeps plain
// Dijkstra: its `(t_f_min - d) + d` can round one ulp below `t_f_min`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "obs/counters.hpp"
#include "sched/network_state.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

/// The oracles' own label and heap entry: the search's layout as it was
/// when they were written (a lazy-deletion heap, one entry per push), so
/// they stay independent of the production workspace.
struct OracleLabel {
  double finish = std::numeric_limits<double>::infinity();
  double start = std::numeric_limits<double>::infinity();
  std::size_t hops = 0;
  LinkId parent;
  bool settled = false;
};

/// Min-heap entry ordered by (finish, start, hops, node).
struct OracleEntry {
  double finish;
  double start;
  std::size_t hops;
  NodeId node;
  bool operator>(const OracleEntry& other) const {
    if (finish != other.finish) return finish > other.finish;
    if (start != other.start) return start > other.start;
    if (hops != other.hops) return hops > other.hops;
    return node > other.node;
  }
};

/// The search as it was before dead-end pruning, kept verbatim apart from
/// using local scratch: the oracle the production search must match.
template <typename Probe>
Route unpruned_route_probe(const Topology& topology, NodeId from, NodeId to,
                           double ready_time, Probe&& probe) {
  if (from == to) {
    return {};
  }
  using DijkstraLabel = OracleLabel;
  using DijkstraQueueEntry = OracleEntry;
  std::vector<DijkstraLabel> labels(topology.num_nodes());
  std::vector<DijkstraQueueEntry> frontier;
  const auto heap_greater = std::greater<DijkstraQueueEntry>();
  const auto push = [&](DijkstraQueueEntry entry) {
    frontier.push_back(entry);
    std::push_heap(frontier.begin(), frontier.end(), heap_greater);
  };
  labels[from.index()] = DijkstraLabel{0.0, ready_time, 0, LinkId{}, false};
  push(DijkstraQueueEntry{0.0, ready_time, 0, from});
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), heap_greater);
    const DijkstraQueueEntry entry = frontier.back();
    frontier.pop_back();
    DijkstraLabel& current = labels[entry.node.index()];
    if (current.settled || entry.finish > current.finish ||
        (entry.finish == current.finish && entry.start > current.start)) {
      continue;
    }
    current.settled = true;
    if (entry.node == to) {
      break;
    }
    const double current_start = current.start;
    const double current_finish = current.finish;
    const std::size_t current_hops = current.hops;
    for (LinkId l : topology.out_links(entry.node)) {
      const NodeId next = topology.link(l).dst;
      DijkstraLabel& next_label = labels[next.index()];
      if (next_label.settled) {
        continue;
      }
      const ProbeResult result =
          probe(l, ProbeState{current_start, current_finish});
      const bool better =
          result.finish < next_label.finish ||
          (result.finish == next_label.finish &&
           (result.virtual_start < next_label.start ||
            (result.virtual_start == next_label.start &&
             current_hops + 1 < next_label.hops)));
      if (better) {
        next_label.finish = result.finish;
        next_label.start = result.virtual_start;
        next_label.hops = current_hops + 1;
        next_label.parent = l;
        push(DijkstraQueueEntry{result.finish, result.virtual_start,
                                next_label.hops, next});
      }
    }
  }
  if (!labels[to.index()].parent.valid()) {
    return {};
  }
  Route route;
  NodeId at = to;
  while (at != from) {
    const LinkId hop = labels[at.index()].parent;
    route.push_back(hop);
    at = topology.link(hop).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

/// The search with the per-relaxation dead-end check it had before the
/// transit adjacency, kept verbatim apart from using local scratch: the
/// oracle whose relaxation counts the production search must equal.
template <typename Probe>
Route dead_end_route_probe(const Topology& topology, NodeId from, NodeId to,
                           double ready_time, Probe&& probe) {
  if (from == to) {
    return {};
  }
  using DijkstraLabel = OracleLabel;
  using DijkstraQueueEntry = OracleEntry;
  std::vector<DijkstraLabel> labels(topology.num_nodes());
  std::vector<DijkstraQueueEntry> frontier;
  const auto heap_greater = std::greater<DijkstraQueueEntry>();
  const auto push = [&](DijkstraQueueEntry entry) {
    frontier.push_back(entry);
    std::push_heap(frontier.begin(), frontier.end(), heap_greater);
  };
  labels[from.index()] = DijkstraLabel{0.0, ready_time, 0, LinkId{}, false};
  push(DijkstraQueueEntry{0.0, ready_time, 0, from});
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), heap_greater);
    const DijkstraQueueEntry entry = frontier.back();
    frontier.pop_back();
    DijkstraLabel& current = labels[entry.node.index()];
    if (current.settled || entry.finish > current.finish ||
        (entry.finish == current.finish && entry.start > current.start)) {
      continue;  // stale entry
    }
    current.settled = true;
    if (entry.node == to) {
      break;
    }
    const double current_start = current.start;
    const double current_finish = current.finish;
    const std::size_t current_hops = current.hops;
    for (LinkId l : topology.out_links(entry.node)) {
      const NodeId next = topology.link(l).dst;
      DijkstraLabel& next_label = labels[next.index()];
      if (next_label.settled) {
        continue;
      }
      // Dead end: a non-target node whose only out-link leads back here
      // can only bounce traffic into this now-settled node, so its label
      // would never feed another node. Skipping it leaves the pop order
      // of every other node, and so the route, unchanged.
      if (next != to) {
        const std::vector<LinkId>& next_out = topology.out_links(next);
        if (next_out.size() == 1 &&
            topology.link(next_out.front()).dst == entry.node) {
          continue;
        }
      }
      const ProbeResult result =
          probe(l, ProbeState{current_start, current_finish});
      // Lexicographic relaxation (finish, start, hops): on an idle
      // cut-through network every path yields the same finish, so hop
      // count must break ties or routes balloon.
      const bool better =
          result.finish < next_label.finish ||
          (result.finish == next_label.finish &&
           (result.virtual_start < next_label.start ||
            (result.virtual_start == next_label.start &&
             current_hops + 1 < next_label.hops)));
      if (better) {
        next_label.finish = result.finish;
        next_label.start = result.virtual_start;
        next_label.hops = current_hops + 1;
        next_label.parent = l;
        push(DijkstraQueueEntry{result.finish, result.virtual_start,
                                next_label.hops, next});
      }
    }
  }
  if (!labels[to.index()].parent.valid()) {
    return {};
  }
  Route route;
  NodeId at = to;
  while (at != from) {
    const LinkId hop = labels[at.index()].parent;
    route.push_back(hop);
    at = topology.link(hop).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

/// One production search with fresh adjacency and scratch.
template <typename Probe>
Route production_route(const Topology& topology, NodeId from, NodeId to,
                       double ready_time, Probe&& probe) {
  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route route;
  dijkstra_route_probe(adjacency, from, to, ready_time, probe, workspace,
                       route);
  return route;
}

struct Case {
  std::string name;
  /// Every processor has several out-links, so none is ever a dead end.
  bool all_relay;
  std::function<Topology(const SpeedConfig&, Rng&)> build;
};

std::vector<Case> all_builders() {
  return {
      {"fully_connected", true,
       [](const SpeedConfig& s, Rng& r) { return fully_connected(7, s, r); }},
      {"switched_star", false,
       [](const SpeedConfig& s, Rng& r) { return switched_star(8, s, r); }},
      {"ring", true,
       [](const SpeedConfig& s, Rng& r) { return ring(9, s, r); }},
      {"mesh2d", true,
       [](const SpeedConfig& s, Rng& r) { return mesh2d(3, 4, s, r); }},
      {"torus2d", true,
       [](const SpeedConfig& s, Rng& r) { return torus2d(4, 4, s, r); }},
      {"hypercube", true,
       [](const SpeedConfig& s, Rng& r) { return hypercube(4, s, r); }},
      {"fat_tree", false,
       [](const SpeedConfig& s, Rng& r) { return fat_tree(4, 4, s, r); }},
      {"bus", true, [](const SpeedConfig& s, Rng& r) { return bus(6, s, r); }},
      {"dragonfly", false,
       [](const SpeedConfig& s, Rng& r) { return dragonfly(3, 2, 2, s, r); }},
      {"switch_tree", false,
       [](const SpeedConfig& s, Rng& r) {
         return switch_tree(3, 2, 2, s, r);
       }},
      {"random_wan", false,
       [](const SpeedConfig& s, Rng& r) {
         RandomWanParams params;
         params.num_processors = 16;
         params.fanout_min = 2;
         params.fanout_max = 6;
         params.speeds = s;
         return random_wan(params, r);
       }},
  };
}

/// Edges pre-booked on the network before the searches run.
constexpr std::size_t kBookedEdges = 40;

/// Minimal route between a random processor pair, for pre-booking load.
Route random_route(const Topology& topology, Rng& rng) {
  const auto& procs = topology.processors();
  const auto last = static_cast<std::int64_t>(procs.size()) - 1;
  const NodeId from = procs[static_cast<std::size_t>(rng.uniform_int(0, last))];
  NodeId to = from;
  while (to == from) {
    to = procs[static_cast<std::size_t>(rng.uniform_int(0, last))];
  }
  return bfs_route(topology, from, to);
}

/// Compares the production search with both oracles for every processor
/// pair under `probe`; `ready` is drawn per pair so queries start inside
/// the load.
template <typename Probe>
void expect_exact(const Topology& topology, const Case& c, Rng& rng,
                  const Probe& probe, const std::string& model) {
  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route pruned;
  std::uint64_t pruned_total = 0;
  std::uint64_t unpruned_total = 0;
  for (const NodeId from : topology.processors()) {
    for (const NodeId to : topology.processors()) {
      if (from == to) {
        continue;
      }
      const double ready = rng.uniform_real(0.0, 40.0);
      std::uint64_t pruned_probes = 0;
      std::uint64_t dead_end_probes = 0;
      std::uint64_t unpruned_probes = 0;
      const auto counting = [&probe](std::uint64_t& count) {
        return [&probe, &count](LinkId l, const ProbeState& state) {
          ++count;
          return probe(l, state);
        };
      };
      dijkstra_route_probe(adjacency, from, to, ready,
                           counting(pruned_probes), workspace, pruned);
      const Route dead_end = dead_end_route_probe(
          topology, from, to, ready, counting(dead_end_probes));
      const Route unpruned = unpruned_route_probe(
          topology, from, to, ready, counting(unpruned_probes));
      const std::string where = c.name + "/" + model + " " +
                                std::to_string(from.value()) + "->" +
                                std::to_string(to.value());
      ASSERT_EQ(pruned, dead_end) << where;
      ASSERT_EQ(pruned, unpruned) << where;
      ASSERT_EQ(pruned_probes, dead_end_probes) << where;
      ASSERT_LE(pruned_probes, unpruned_probes) << where;
      if (c.all_relay) {
        ASSERT_EQ(pruned_probes, unpruned_probes) << where;
      }
      pruned_total += pruned_probes;
      unpruned_total += unpruned_probes;
    }
  }
  // Every other builder hangs processors off switches: the prune must
  // actually fire there, or this suite would compare a search to itself.
  if (!c.all_relay) {
    EXPECT_LT(pruned_total, unpruned_total) << c.name << "/" << model;
  }
}

class RoutingPruneProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static SpeedConfig speeds(std::uint64_t seed) {
    SpeedConfig config;
    config.heterogeneous = seed % 2 == 1;
    return config;
  }
};

TEST_P(RoutingPruneProperty, ExclusiveProbeMatchesUnprunedSearch) {
  for (const Case& c : all_builders()) {
    Rng rng(GetParam() * 131 + c.name.size());
    const Topology topology = c.build(speeds(GetParam()), rng);
    sched::ExclusiveNetworkState state(topology, kBookedEdges);
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      const timeline::Placement placement =
          state.probe_link(l, s.earliest_start, s.min_finish, cost);
      return ProbeResult{placement.start, placement.finish};
    };
    expect_exact(topology, c, rng, probe, "exclusive/idle");
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      const Route route = random_route(topology, rng);
      (void)state.commit_edge_basic(dag::EdgeId(e), route,
                                    rng.uniform_real(0.0, 50.0),
                                    rng.uniform_real(0.5, 8.0));
    }
    expect_exact(topology, c, rng, probe, "exclusive/loaded");
  }
}

TEST_P(RoutingPruneProperty, BandwidthProbeMatchesUnprunedSearch) {
  for (const Case& c : all_builders()) {
    Rng rng(GetParam() * 137 + c.name.size());
    const Topology topology = c.build(speeds(GetParam()), rng);
    sched::BandwidthNetworkState state(topology);
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      return state.probe(l, s.earliest_start, s.min_finish, cost);
    };
    expect_exact(topology, c, rng, probe, "bandwidth/idle");
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      const Route route = random_route(topology, rng);
      (void)state.commit_edge(route, rng.uniform_real(0.0, 50.0),
                              rng.uniform_real(0.5, 8.0));
    }
    expect_exact(topology, c, rng, probe, "bandwidth/loaded");
  }
}

/// Fabrics with many equal-hop paths between most pairs, where the
/// search's tie order decides the route.
std::vector<Case> cyclic_builders() {
  return {
      {"torus2d", true,
       [](const SpeedConfig& s, Rng& r) { return torus2d(4, 5, s, r); }},
      {"hypercube", true,
       [](const SpeedConfig& s, Rng& r) { return hypercube(5, s, r); }},
      {"ring", true,
       [](const SpeedConfig& s, Rng& r) { return ring(8, s, r); }},
      {"mesh2d", true,
       [](const SpeedConfig& s, Rng& r) { return mesh2d(3, 4, s, r); }},
      {"random_wan", false,
       [](const SpeedConfig& s, Rng& r) {
         RandomWanParams params;
         params.num_processors = 20;
         params.fanout_min = 2;
         params.fanout_max = 6;
         params.speeds = s;
         return random_wan(params, r);
       }},
  };
}

/// The goal-directed search against the unpruned oracle for every
/// processor pair: equal routes, the oracle's target label bit for bit
/// (its relaxations folded along its route), and no more relaxations.
/// `ready(rng)` draws each pair's ready time.
template <typename Probe, typename Ready>
void expect_goal_directed_exact(const Topology& topology,
                                const std::string& where_prefix,
                                const Probe& probe, Rng& rng,
                                const Ready& ready) {
  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route route;
  std::uint64_t goal_total = 0;
  std::uint64_t oracle_total = 0;
  for (const NodeId from : topology.processors()) {
    for (const NodeId to : topology.processors()) {
      if (from == to) {
        continue;
      }
      const double ready_time = ready(rng);
      std::uint64_t goal_probes = 0;
      std::uint64_t oracle_probes = 0;
      const auto counting = [&probe](std::uint64_t& count) {
        return [&probe, &count](LinkId l, const ProbeState& state) {
          ++count;
          return probe(l, state);
        };
      };
      goal_directed_route_probe(adjacency, from, to, ready_time,
                                counting(goal_probes), workspace, route);
      const detail::DijkstraLabel label = workspace.label(to.index());
      const Route oracle = unpruned_route_probe(
          topology, from, to, ready_time, counting(oracle_probes));
      const std::string where = where_prefix + " " +
                                std::to_string(from.value()) + "->" +
                                std::to_string(to.value());
      ASSERT_EQ(route, oracle) << where;
      ProbeState state{ready_time, 0.0};
      for (const LinkId l : oracle) {
        const ProbeResult hop = probe(l, state);
        state = ProbeState{hop.virtual_start, hop.finish};
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(label.finish),
                std::bit_cast<std::uint64_t>(state.min_finish))
          << where;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(label.start),
                std::bit_cast<std::uint64_t>(state.earliest_start))
          << where;
      ASSERT_EQ(label.hops, oracle.size()) << where;
      ASSERT_LE(goal_probes, oracle_probes) << where;
      goal_total += goal_probes;
      oracle_total += oracle_probes;
    }
  }
  // The bound must cut work somewhere, or this compares a search to
  // itself.
  EXPECT_LT(goal_total, oracle_total) << where_prefix;
}

TEST_P(RoutingPruneProperty, GoalDirectedBandwidthSearchMatchesDijkstra) {
  for (const Case& c : cyclic_builders()) {
    Rng rng(GetParam() * 139 + c.name.size());
    const Topology topology = c.build(speeds(GetParam()), rng);
    sched::BandwidthNetworkState state(topology);
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      return state.probe(l, s.earliest_start, s.min_finish, cost);
    };
    const auto ready = [](Rng& r) { return r.uniform_real(0.0, 40.0); };
    expect_goal_directed_exact(topology, c.name + "/bandwidth/idle", probe,
                               rng, ready);
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      const Route route = random_route(topology, rng);
      (void)state.commit_edge(route, rng.uniform_real(0.0, 50.0),
                              rng.uniform_real(0.5, 8.0));
    }
    expect_goal_directed_exact(topology, c.name + "/bandwidth/loaded",
                               probe, rng, ready);
  }
}

// Small integer busy times and durations: most labels tie with several
// others, at equal hops through different predecessors, so the route
// rests on the canonical parent rule. The probe is monotone like the
// bandwidth probe: no finish below `min_finish`, no start before the
// arrival.
TEST_P(RoutingPruneProperty, GoalDirectedSearchMatchesDijkstraOnTies) {
  for (const Case& c : cyclic_builders()) {
    Rng rng(GetParam() * 149 + c.name.size());
    const Topology topology = c.build(speeds(GetParam()), rng);
    std::vector<double> busy(topology.num_links());
    std::vector<double> duration(topology.num_links());
    for (std::size_t l = 0; l < topology.num_links(); ++l) {
      busy[l] = static_cast<double>(rng.uniform_int(0, 4));
      duration[l] = static_cast<double>(rng.uniform_int(1, 2));
    }
    const auto probe = [&](LinkId l, const ProbeState& s) {
      const double start = std::max(s.earliest_start, busy[l.index()]);
      return ProbeResult{
          start, std::max(s.min_finish, start + duration[l.index()])};
    };
    const auto ready = [](Rng& r) {
      return static_cast<double>(r.uniform_int(0, 3));
    };
    expect_goal_directed_exact(topology, c.name + "/ties", probe, rng,
                               ready);
  }
}

/// Idle unit-time probe: every route's cost is its hop count.
ProbeResult unit_probe(LinkId, const ProbeState& s) {
  return ProbeResult{s.earliest_start, s.earliest_start + 1.0};
}

/// Production route and relaxation count, checked against both oracles.
void expect_matches_oracles(const Topology& topology, NodeId from,
                            NodeId to) {
  std::uint64_t pruned = 0;
  std::uint64_t dead_end = 0;
  std::uint64_t unpruned = 0;
  const auto counting = [](std::uint64_t& count) {
    return [&count](LinkId l, const ProbeState& s) {
      ++count;
      return unit_probe(l, s);
    };
  };
  const Route route =
      production_route(topology, from, to, 0.0, counting(pruned));
  EXPECT_EQ(route, dead_end_route_probe(topology, from, to, 0.0,
                                        counting(dead_end)));
  EXPECT_EQ(route, unpruned_route_probe(topology, from, to, 0.0,
                                        counting(unpruned)));
  EXPECT_EQ(pruned, dead_end);
  EXPECT_LE(pruned, unpruned);
}

// On an idle switched star every leaf but the target is a stub of the
// hub, so the search probes exactly two links, the source's uplink and
// the hub's link to the target, and scans no other: the hub walks no
// transit arc at all.
TEST(RoutingPrune, SwitchedStarProbesOnlyTheRoute) {
  Rng rng(1);
  const Topology topology = switched_star(8, SpeedConfig{}, rng);
  std::uint64_t probes = 0;
  const auto probe = [&](LinkId l, const ProbeState& s) {
    ++probes;
    return unit_probe(l, s);
  };
  const auto& procs = topology.processors();
  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route route;
  obs::Counter& scanned = obs::hot_counters().dijkstra_links_scanned;
  const std::uint64_t scanned_before = scanned.value();
  dijkstra_route_probe(adjacency, procs[0], procs[5], 0.0, probe, workspace,
                       route);
  workspace.flush_search_work();
  EXPECT_EQ(route.size(), 2u);
  EXPECT_EQ(probes, 2u);
  EXPECT_EQ(scanned.value() - scanned_before, 2u);
}

// A node with one out-link that does not lead back is a one-way relay,
// not a dead end: a -> s -> b with b -> a as the only way back. `s` is a
// stub of `b`, but a -> s is a transit arc of `a`.
TEST(RoutingPrune, OneWayRelayIsNotADeadEnd) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const NodeId s = topology.add_switch();
  const LinkId a_s = topology.add_link(a, s);
  const LinkId s_b = topology.add_link(s, b);
  (void)topology.add_link(b, a);
  EXPECT_EQ(production_route(topology, a, b, 0.0, unit_probe),
            (Route{a_s, s_b}));
  expect_matches_oracles(topology, a, b);
  expect_matches_oracles(topology, b, a);
}

// Two processors on one duplex cable are each other's stub: neither has
// a transit arc, so every route is the target's stub arc.
TEST(RoutingPrune, DuplexPairAreEachOthersStub) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const auto [a_b, b_a] = topology.add_duplex_link(a, b);
  const TransitAdjacency adjacency(topology);
  EXPECT_TRUE(adjacency.transit_arcs(a).empty());
  EXPECT_TRUE(adjacency.transit_arcs(b).empty());
  EXPECT_EQ(adjacency.stub_parent(a), b);
  EXPECT_EQ(adjacency.stub_parent(b), a);
  EXPECT_EQ(production_route(topology, a, b, 0.0, unit_probe), (Route{a_b}));
  EXPECT_EQ(production_route(topology, b, a, 0.0, unit_probe), (Route{b_a}));
  expect_matches_oracles(topology, a, b);
  expect_matches_oracles(topology, b, a);
}

// A search may start at a stub: its one out-link is a transit arc, and
// its parent's link back into it is never walked.
TEST(RoutingPrune, StubSourceLeavesThroughItsParent) {
  Rng rng(2);
  const Topology topology = fat_tree(2, 3, SpeedConfig{}, rng);
  const auto& procs = topology.processors();
  const TransitAdjacency adjacency(topology);
  for (const NodeId from : procs) {
    ASSERT_TRUE(adjacency.stub_parent(from).valid());
    for (const NodeId to : procs) {
      if (from != to) {
        expect_matches_oracles(topology, from, to);
      }
    }
  }
}

// Parallel links from a parent into its stub target stay in link-id
// order, so an idle tie goes to the lower link id, as it does in the
// search over every out-link.
TEST(RoutingPrune, ParallelStubLinksKeepLinkIdOrder) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const NodeId s = topology.add_switch();
  (void)topology.add_duplex_link(a, s);
  const LinkId first = topology.add_link(s, b);
  const LinkId second = topology.add_link(s, b);
  (void)topology.add_link(b, s);
  const TransitAdjacency adjacency(topology);
  ASSERT_EQ(adjacency.stub_parent(b), s);
  ASSERT_EQ(adjacency.stub_arcs(b).size(), 2u);
  EXPECT_EQ(adjacency.stub_arcs(b)[0].link, first);
  EXPECT_EQ(adjacency.stub_arcs(b)[1].link, second);
  const Route route = production_route(topology, a, b, 0.0, unit_probe);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(route[1], first);
  expect_matches_oracles(topology, a, b);
  // A load on the first link makes the second one win.
  const auto busy_first = [&](LinkId l, const ProbeState& st) {
    const double start = l == first ? st.earliest_start + 5.0
                                    : st.earliest_start;
    return ProbeResult{start, start + 1.0};
  };
  EXPECT_EQ(production_route(topology, a, b, 0.0, busy_first)[1], second);
}

// A two-member bus is a shared medium with one directed link each way,
// so its members are each other's stub, like a duplex pair.
TEST(RoutingPrune, TwoMemberBusRoutesOverItsLink) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  (void)topology.add_bus({a, b});
  const Route route = production_route(topology, a, b, 0.0, unit_probe);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(topology.link(route[0]).src, a);
  EXPECT_EQ(topology.link(route[0]).dst, b);
  expect_matches_oracles(topology, a, b);
  expect_matches_oracles(topology, b, a);
}

// The exclusive probe places a hop at `max(t_es, t_f_min - d)` and
// finishes it at that plus `d`, which can round one ulp below `t_f_min`,
// so a child's label can sit below its parent's. Here, from a ready time
// of 0.5, a -> t finishes at 0.9 and a -> b -> t one ulp earlier. Plain
// Dijkstra pops b (node 1) before t on the tie at 0.9, and so settles t
// through b; a hop-bound order pops t first, at 0.9, over the direct
// link. The exclusive probe therefore keeps `dijkstra_route_probe`.
TEST(RoutingPrune, OneUlpDriftKeepsDijkstraOrder) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const NodeId t = topology.add_processor();
  const LinkId a_b = topology.add_link(a, b, 5.0);
  const LinkId a_t = topology.add_link(a, t, 5.0);
  const LinkId b_t = topology.add_link(b, t, 10.0);
  const sched::ExclusiveNetworkState state(topology, 1);
  const auto probe = [&](LinkId l, const ProbeState& s) {
    const timeline::Placement placement =
        state.probe_link(l, s.earliest_start, s.min_finish, 2.0);
    return ProbeResult{placement.start, placement.finish};
  };
  constexpr double kReady = 0.5;
  const ProbeResult direct = probe(a_t, ProbeState{kReady, 0.0});
  const ProbeResult first = probe(a_b, ProbeState{kReady, 0.0});
  const ProbeResult relayed =
      probe(b_t, ProbeState{first.virtual_start, first.finish});
  ASSERT_EQ(direct.finish, first.finish);
  ASSERT_EQ(relayed.finish, std::nextafter(direct.finish, 0.0));

  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route route;
  dijkstra_route_probe(adjacency, a, t, kReady, probe, workspace, route);
  EXPECT_EQ(route, (Route{a_b, b_t}));
  EXPECT_EQ(route, unpruned_route_probe(topology, a, t, kReady, probe));
  goal_directed_route_probe(adjacency, a, t, kReady, probe, workspace,
                            route);
  EXPECT_EQ(route, (Route{a_t}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingPruneProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace edgesched::net
