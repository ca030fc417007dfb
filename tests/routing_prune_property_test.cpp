// Exactness of dead-end pruning in the modified-routing search (§4.3).
//
// `net::dijkstra_route_probe` never relaxes into a non-target node whose
// only out-link leads back to the node being expanded. The claim is that
// this changes no route: such a node cannot be transit, and the heap's
// total order pops every other node in the same sequence without it.
// This suite keeps the unpruned search as a local oracle and compares it
// with the production search on every `net::builders` topology, under
// seeded random link loads, for both network models' probes:
//
//   * the exclusive basic-insertion probe (`probe_link`), and
//   * the bandwidth probe (`probe_first_flow` / `probe_finish`).
//
// For every processor pair the routes must be equal and the pruned
// search may relax no more links than the oracle. Where every processor
// relays traffic the prune can never fire, so the counts must be equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "sched/network_state.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

/// The search as it was before dead-end pruning, kept verbatim apart from
/// using local scratch: the oracle the production search must match.
template <typename Probe>
Route unpruned_route_probe(const Topology& topology, NodeId from, NodeId to,
                           double ready_time, Probe&& probe) {
  if (from == to) {
    return {};
  }
  using detail::DijkstraLabel;
  using detail::DijkstraQueueEntry;
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

/// Compares pruned and unpruned search for every processor pair under
/// `probe`; `ready` is drawn per pair so queries start inside the load.
template <typename Probe>
void expect_exact(const Topology& topology, const Case& c, Rng& rng,
                  const Probe& probe, const std::string& model) {
  RoutingWorkspace workspace;
  std::uint64_t pruned_total = 0;
  std::uint64_t oracle_total = 0;
  for (const NodeId from : topology.processors()) {
    for (const NodeId to : topology.processors()) {
      if (from == to) {
        continue;
      }
      const double ready = rng.uniform_real(0.0, 40.0);
      std::uint64_t pruned_probes = 0;
      std::uint64_t oracle_probes = 0;
      const auto pruned_probe = [&](LinkId l, const ProbeState& state) {
        ++pruned_probes;
        return probe(l, state);
      };
      const auto oracle_probe = [&](LinkId l, const ProbeState& state) {
        ++oracle_probes;
        return probe(l, state);
      };
      const Route pruned = dijkstra_route_probe(topology, from, to, ready,
                                                pruned_probe, &workspace);
      const Route oracle =
          unpruned_route_probe(topology, from, to, ready, oracle_probe);
      ASSERT_EQ(pruned, oracle)
          << c.name << "/" << model << " " << from.value() << "->"
          << to.value();
      ASSERT_LE(pruned_probes, oracle_probes)
          << c.name << "/" << model << " " << from.value() << "->"
          << to.value();
      if (c.all_relay) {
        ASSERT_EQ(pruned_probes, oracle_probes)
            << c.name << "/" << model << " " << from.value() << "->"
            << to.value();
      }
      pruned_total += pruned_probes;
      oracle_total += oracle_probes;
    }
  }
  // Every other builder hangs processors off switches: the prune must
  // actually fire there, or this suite would compare a search to itself.
  if (!c.all_relay) {
    EXPECT_LT(pruned_total, oracle_total) << c.name << "/" << model;
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
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      const Route route = random_route(topology, rng);
      (void)state.commit_edge_basic(dag::EdgeId(e), route,
                                    rng.uniform_real(0.0, 50.0),
                                    rng.uniform_real(0.5, 8.0));
    }
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      const timeline::Placement placement =
          state.probe_link(l, s.earliest_start, s.min_finish, cost);
      return ProbeResult{placement.start, placement.finish};
    };
    expect_exact(topology, c, rng, probe, "exclusive");
  }
}

TEST_P(RoutingPruneProperty, BandwidthProbeMatchesUnprunedSearch) {
  for (const Case& c : all_builders()) {
    Rng rng(GetParam() * 137 + c.name.size());
    const Topology topology = c.build(speeds(GetParam()), rng);
    sched::BandwidthNetworkState state(topology);
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      const Route route = random_route(topology, rng);
      (void)state.commit_edge(route, rng.uniform_real(0.0, 50.0),
                              rng.uniform_real(0.5, 8.0));
    }
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      return ProbeResult{
          state.probe_first_flow(l, s.earliest_start),
          state.probe_finish(l, s.earliest_start, s.min_finish, cost)};
    };
    expect_exact(topology, c, rng, probe, "bandwidth");
  }
}

// On an idle switched star every leaf but the target is a dead end of
// the hub, so the pruned search probes exactly two links: the source's
// uplink and the hub's link to the target.
TEST(RoutingPrune, SwitchedStarProbesOnlyTheRoute) {
  Rng rng(1);
  const Topology topology = switched_star(8, SpeedConfig{}, rng);
  std::uint64_t probes = 0;
  const auto probe = [&](LinkId, const ProbeState& s) {
    ++probes;
    return ProbeResult{s.earliest_start, s.earliest_start + 1.0};
  };
  const auto& procs = topology.processors();
  const Route route =
      dijkstra_route_probe(topology, procs[0], procs[5], 0.0, probe);
  EXPECT_EQ(route.size(), 2u);
  EXPECT_EQ(probes, 2u);
}

// A node with one out-link that does not lead back is a one-way relay,
// not a dead end: a -> s -> b with b -> a as the only way back.
TEST(RoutingPrune, OneWayRelayIsNotADeadEnd) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const NodeId s = topology.add_switch();
  const LinkId a_s = topology.add_link(a, s);
  const LinkId s_b = topology.add_link(s, b);
  (void)topology.add_link(b, a);
  const auto probe = [](LinkId, const ProbeState& st) {
    return ProbeResult{st.earliest_start, st.earliest_start + 1.0};
  };
  EXPECT_EQ(dijkstra_route_probe(topology, a, b, 0.0, probe),
            (Route{a_s, s_b}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingPruneProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace edgesched::net
