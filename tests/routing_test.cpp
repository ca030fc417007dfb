#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/builders.hpp"
#include "sched/network_state.hpp"

namespace edgesched::net {
namespace {

/// a -- s1 -- b and a -- s2 -- s3 -- b: short path via s1, long via s2/s3.
struct TwoPathNetwork {
  Topology topology;
  NodeId a, b, s1, s2, s3;
  LinkId a_s1, s1_b, a_s2, s2_s3, s3_b;

  TwoPathNetwork() {
    a = topology.add_processor(1.0, "a");
    b = topology.add_processor(1.0, "b");
    s1 = topology.add_switch("s1");
    s2 = topology.add_switch("s2");
    s3 = topology.add_switch("s3");
    a_s1 = topology.add_duplex_link(a, s1).first;
    s1_b = topology.add_duplex_link(s1, b).first;
    a_s2 = topology.add_duplex_link(a, s2).first;
    s2_s3 = topology.add_duplex_link(s2, s3).first;
    s3_b = topology.add_duplex_link(s3, b).first;
  }
};

TEST(BfsRoute, PicksFewestHops) {
  TwoPathNetwork net;
  const Route route = bfs_route(net.topology, net.a, net.b);
  EXPECT_EQ(route, (Route{net.a_s1, net.s1_b}));
}

TEST(BfsRoute, SameNodeIsEmpty) {
  TwoPathNetwork net;
  EXPECT_TRUE(bfs_route(net.topology, net.a, net.a).empty());
}

TEST(BfsRoute, ThrowsWhenUnreachable) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  EXPECT_THROW((void)bfs_route(t, a, b), std::invalid_argument);
}

TEST(BfsRoute, RouteIsAlwaysValid) {
  Rng rng(3);
  RandomWanParams params;
  params.num_processors = 24;
  const Topology t = random_wan(params, rng);
  const auto& procs = t.processors();
  for (std::size_t i = 0; i < procs.size(); i += 3) {
    for (std::size_t j = 0; j < procs.size(); j += 5) {
      const Route route = bfs_route(t, procs[i], procs[j]);
      EXPECT_NO_THROW(t.validate_route(route, procs[i], procs[j]));
    }
  }
}

TEST(StaticRouteTable, ReturnsSameRoute) {
  TwoPathNetwork net;
  const StaticRouteTable table(net.topology);
  const Route& first = table.route(net.a, net.b);
  const Route& second = table.route(net.a, net.b);
  EXPECT_EQ(&first, &second);  // filled once, then read
  EXPECT_EQ(first, (Route{net.a_s1, net.s1_b}));
}


/// One search with its own adjacency and scratch.
template <typename Probe>
Route probe_route(const Topology& topology, NodeId from, NodeId to,
                  double ready_time, Probe&& probe) {
  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route route;
  dijkstra_route_probe(adjacency, from, to, ready_time, probe, workspace,
                       route);
  return route;
}

TEST(DijkstraRouteProbe, AvoidsBusyLinks) {
  TwoPathNetwork net;
  // Probe that reports the s1 path as busy until t=100.
  const auto probe = [&](LinkId l, const ProbeState& state) {
    const double duration = 1.0;
    double start = state.earliest_start;
    if (l == net.a_s1 || l == net.s1_b) {
      start = std::max(start, 100.0);
    }
    const double finish =
        std::max(start + duration, state.min_finish);
    return ProbeResult{finish - duration, finish};
  };
  const Route route = probe_route(net.topology, net.a, net.b, 0.0, probe);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(DijkstraRouteProbe, PrefersShortPathWhenIdle) {
  TwoPathNetwork net;
  const auto probe = [&](LinkId, const ProbeState& state) {
    const double finish = std::max(state.earliest_start + 1.0,
                                   state.min_finish);
    return ProbeResult{finish - 1.0, finish};
  };
  const Route route = probe_route(net.topology, net.a, net.b, 5.0, probe);
  EXPECT_EQ(route, (Route{net.a_s1, net.s1_b}));
}

TEST(DijkstraRouteProbe, SameNodeIsEmpty) {
  TwoPathNetwork net;
  const auto probe = [](LinkId, const ProbeState& state) {
    return ProbeResult{state.earliest_start, state.earliest_start + 1.0};
  };
  EXPECT_TRUE(probe_route(net.topology, net.a, net.a, 0.0, probe).empty());
}

TEST(DijkstraRouteProbe, ThrowsWhenUnreachable) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const auto probe = [](LinkId, const ProbeState& state) {
    return ProbeResult{state.earliest_start, state.earliest_start + 1.0};
  };
  EXPECT_THROW((void)probe_route(t, a, b, 0.0, probe),
               std::invalid_argument);
}

TEST(DijkstraRouteProbe, MatchesBfsHopCountOnUniformIdleNetwork) {
  Rng rng(11);
  RandomWanParams params;
  params.num_processors = 16;
  const Topology t = random_wan(params, rng);
  const auto probe = [](LinkId, const ProbeState& state) {
    const double finish =
        std::max(state.earliest_start + 1.0, state.min_finish);
    return ProbeResult{finish - 1.0, finish};
  };
  const auto& procs = t.processors();
  for (std::size_t i = 0; i < procs.size(); i += 2) {
    const Route bfs = bfs_route(t, procs[0], procs[i]);
    const Route dij = probe_route(t, procs[0], procs[i], 0.0, probe);
    // On an idle homogeneous network the probe cost is hop count, so the
    // routes have equal length (ties may pick different links).
    EXPECT_EQ(dij.size(), bfs.size());
  }
}

// --- RoutingWorkspace ---------------------------------------------------

/// Load-aware probe over an ExclusiveNetworkState, as OIHSA issues it.
struct LoadedProbe {
  const sched::ExclusiveNetworkState& network;
  double cost;
  ProbeResult operator()(LinkId link, const ProbeState& state) const {
    const timeline::Placement p = network.probe_link(
        link, state.earliest_start, state.min_finish, cost);
    return ProbeResult{p.start, p.finish};
  }
};

TEST(RoutingWorkspace, ReuseMatchesFreshSearches) {
  Rng rng(29);
  RandomWanParams params;
  params.num_processors = 20;
  const Topology t = random_wan(params, rng);
  sched::ExclusiveNetworkState network(t, 64);
  const LoadedProbe probe{network, 3.0};
  // Load a few links so probes see non-trivial timelines.
  const auto& procs = t.processors();
  for (std::uint32_t i = 0; i + 1 < 8; ++i) {
    const Route r = bfs_route(t, procs[i], procs[i + 1]);
    if (!r.empty()) {
      network.commit_edge_basic(dag::EdgeId(i), r, 0.0, 5.0);
    }
  }
  const TransitAdjacency adjacency(t);
  RoutingWorkspace workspace;
  Route reused;
  for (std::size_t i = 0; i < procs.size(); i += 2) {
    for (std::size_t j = 1; j < procs.size(); j += 3) {
      if (procs[i] == procs[j]) continue;
      const Route fresh = probe_route(t, procs[i], procs[j], 0.5, probe);
      dijkstra_route_probe(adjacency, procs[i], procs[j], 0.5, probe,
                           workspace, reused);
      EXPECT_EQ(fresh, reused);
    }
  }
}

}  // namespace
}  // namespace edgesched::net
