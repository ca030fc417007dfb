#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

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

TEST(RouteCache, ReturnsSameRoute) {
  TwoPathNetwork net;
  RouteCache cache(net.topology);
  const Route& first = cache.route(net.a, net.b);
  const Route& second = cache.route(net.a, net.b);
  EXPECT_EQ(&first, &second);  // memoised
  EXPECT_EQ(first, (Route{net.a_s1, net.s1_b}));
}

TEST(DijkstraRoute, DefaultWeightIsTransferTime) {
  // Make the short path slow and the long path fast.
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  const NodeId s3 = t.add_switch();
  (void)t.add_link(a, s1, 0.1);
  (void)t.add_link(s1, b, 0.1);
  const LinkId fast1 = t.add_link(a, s2, 10.0);
  const LinkId fast2 = t.add_link(s2, s3, 10.0);
  const LinkId fast3 = t.add_link(s3, b, 10.0);
  const Route route = dijkstra_route(t, a, b);
  EXPECT_EQ(route, (Route{fast1, fast2, fast3}));
}

TEST(DijkstraRoute, CustomWeights) {
  TwoPathNetwork net;
  // Penalise the s1 path heavily.
  const auto weight = [&](LinkId l) {
    return (l == net.a_s1 || l == net.s1_b) ? 100.0 : 1.0;
  };
  const Route route = dijkstra_route(net.topology, net.a, net.b, weight);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

// The search stops once `b` settles, so it never relaxes links beyond
// the target; a negative weight there must still be rejected.
TEST(DijkstraRoute, RejectsNegativeWeightBeyondTarget) {
  TwoPathNetwork net;
  const NodeId c = net.topology.add_processor(1.0, "c");
  const LinkId beyond = net.topology.add_duplex_link(net.b, c).first;
  const auto weight = [&](LinkId l) { return l == beyond ? -1.0 : 1.0; };
  EXPECT_THROW((void)dijkstra_route(net.topology, net.a, net.b, weight),
               std::invalid_argument);
  EXPECT_THROW((void)dijkstra_route(net.topology, net.b, net.a, weight),
               std::invalid_argument);
}

// A leaf processor hanging off a switch is a dead end the search never
// relaxes into unless it is the target; its link weight is still checked.
TEST(DijkstraRoute, RejectsNegativeWeightOnLeafLink) {
  TwoPathNetwork net;
  const NodeId leaf = net.topology.add_processor(1.0, "leaf");
  const LinkId into_leaf = net.topology.add_duplex_link(net.s1, leaf).first;
  const auto weight = [&](LinkId l) { return l == into_leaf ? -1.0 : 1.0; };
  EXPECT_THROW((void)dijkstra_route(net.topology, net.a, net.b, weight),
               std::invalid_argument);
  const auto nan_weight = [&](LinkId l) {
    return l == into_leaf ? std::numeric_limits<double>::quiet_NaN() : 1.0;
  };
  EXPECT_THROW((void)dijkstra_route(net.topology, net.a, net.b, nan_weight),
               std::invalid_argument);
  EXPECT_THROW((void)k_shortest_routes(net.topology, net.a, net.b, 2, weight),
               std::invalid_argument);
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
  const Route route =
      dijkstra_route_probe(net.topology, net.a, net.b, 0.0, probe);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(DijkstraRouteProbe, PrefersShortPathWhenIdle) {
  TwoPathNetwork net;
  const auto probe = [&](LinkId, const ProbeState& state) {
    const double finish = std::max(state.earliest_start + 1.0,
                                   state.min_finish);
    return ProbeResult{finish - 1.0, finish};
  };
  const Route route =
      dijkstra_route_probe(net.topology, net.a, net.b, 5.0, probe);
  EXPECT_EQ(route, (Route{net.a_s1, net.s1_b}));
}

TEST(DijkstraRouteProbe, SameNodeIsEmpty) {
  TwoPathNetwork net;
  const auto probe = [](LinkId, const ProbeState& state) {
    return ProbeResult{state.earliest_start, state.earliest_start + 1.0};
  };
  EXPECT_TRUE(
      dijkstra_route_probe(net.topology, net.a, net.a, 0.0, probe).empty());
}

TEST(DijkstraRouteProbe, ThrowsWhenUnreachable) {
  Topology t;
  const NodeId a = t.add_processor();
  const NodeId b = t.add_processor();
  const auto probe = [](LinkId, const ProbeState& state) {
    return ProbeResult{state.earliest_start, state.earliest_start + 1.0};
  };
  EXPECT_THROW((void)dijkstra_route_probe(t, a, b, 0.0, probe),
               std::invalid_argument);
}

TEST(KShortestRoutes, FindsBothPathsOfTwoPathNetwork) {
  TwoPathNetwork net;
  const auto routes = net::k_shortest_routes(net.topology, net.a, net.b, 3);
  ASSERT_EQ(routes.size(), 2u);  // only two loopless paths exist
  EXPECT_EQ(routes[0], (Route{net.a_s1, net.s1_b}));
  EXPECT_EQ(routes[1], (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(KShortestRoutes, RespectsWeights) {
  TwoPathNetwork net;
  // Make the short path expensive: the 3-hop path must come first.
  const auto weight = [&](LinkId l) {
    return (l == net.a_s1 || l == net.s1_b) ? 10.0 : 1.0;
  };
  const auto routes =
      k_shortest_routes(net.topology, net.a, net.b, 2, weight);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0], (Route{net.a_s2, net.s2_s3, net.s3_b}));
}

TEST(KShortestRoutes, AllRoutesValidAndLoopless) {
  Rng rng(21);
  RandomWanParams params;
  params.num_processors = 20;
  const Topology t = random_wan(params, rng);
  const auto& procs = t.processors();
  const auto routes = k_shortest_routes(t, procs[0], procs.back(), 5);
  EXPECT_GE(routes.size(), 1u);
  double prev_weight = 0.0;
  for (const Route& route : routes) {
    EXPECT_NO_THROW(t.validate_route(route, procs[0], procs.back()));
    // Loopless: no node visited twice.
    std::vector<NodeId> visited{procs[0]};
    for (LinkId l : route) {
      const NodeId next = t.link(l).dst;
      EXPECT_EQ(std::count(visited.begin(), visited.end(), next), 0);
      visited.push_back(next);
    }
    double total = 0.0;
    for (LinkId l : route) {
      total += 1.0 / t.link_speed(l);
    }
    EXPECT_GE(total, prev_weight - 1e-9);  // non-decreasing weights
    prev_weight = total;
  }
}

TEST(KShortestRoutes, RejectsBadArguments) {
  TwoPathNetwork net;
  EXPECT_THROW((void)k_shortest_routes(net.topology, net.a, net.b, 0),
               std::invalid_argument);
  EXPECT_THROW((void)k_shortest_routes(net.topology, net.a, net.a, 2),
               std::invalid_argument);
}

TEST(DijkstraRouteAvoiding, BansWork) {
  TwoPathNetwork net;
  std::vector<bool> banned_links(net.topology.num_links(), false);
  std::vector<bool> banned_nodes(net.topology.num_nodes(), false);
  banned_links[net.a_s1.index()] = true;
  const Route route = dijkstra_route_avoiding(
      net.topology, net.a, net.b, banned_links, banned_nodes);
  EXPECT_EQ(route, (Route{net.a_s2, net.s2_s3, net.s3_b}));
  banned_nodes[net.s2.index()] = true;
  const Route none = dijkstra_route_avoiding(
      net.topology, net.a, net.b, banned_links, banned_nodes);
  EXPECT_TRUE(none.empty());
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
    const Route dij =
        dijkstra_route_probe(t, procs[0], procs[i], 0.0, probe);
    // On an idle homogeneous network the probe cost is hop count, so the
    // routes have equal length (ties may pick different links).
    EXPECT_EQ(dij.size(), bfs.size());
  }
}

// --- ProbedRouteCache / RoutingWorkspace -------------------------------
//
// The memo's validity rule (routing.hpp): a hit requires the exact same
// query AND an unchanged network load generation. These tests pin down
// that a link mutation can never let a stale route escape the cache.

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

TEST(ProbedRouteCache, MissesAfterLinkMutation) {
  TwoPathNetwork net;
  sched::ExclusiveNetworkState network(net.topology, 4);
  ProbedRouteCache memo;
  const double cost = 2.0;
  const LoadedProbe probe{network, cost};

  const std::uint64_t g0 = network.generation();
  const Route before =
      dijkstra_route_probe(net.topology, net.a, net.b, 0.0, probe);
  memo.store(net.a, net.b, 0.0, cost, g0, before);
  ASSERT_NE(memo.lookup(net.a, net.b, 0.0, cost, g0), nullptr);
  EXPECT_EQ(before, (Route{net.a_s1, net.s1_b}));

  // Pile load onto the short path: the next query would steer around it,
  // so serving the memoized route now WOULD be stale.
  for (std::uint32_t i = 0; i < 3; ++i) {
    network.commit_edge_basic(dag::EdgeId(i),
                              Route{net.a_s1, net.s1_b}, 0.0, 50.0);
  }
  const std::uint64_t g1 = network.generation();
  ASSERT_NE(g1, g0);
  // Invalidation: the mutated generation can never hit the old entry.
  EXPECT_EQ(memo.lookup(net.a, net.b, 0.0, cost, g1), nullptr);
  // And the fresh computation indeed differs from the cached route.
  const Route after =
      dijkstra_route_probe(net.topology, net.a, net.b, 0.0, probe);
  EXPECT_EQ(after, (Route{net.a_s2, net.s2_s3, net.s3_b}));
  EXPECT_NE(after, before);
}

TEST(ProbedRouteCache, HitRequiresIdenticalQuery) {
  TwoPathNetwork net;
  ProbedRouteCache memo;
  memo.store(net.a, net.b, 1.0, 2.0, 7, Route{net.a_s1, net.s1_b});
  EXPECT_NE(memo.lookup(net.a, net.b, 1.0, 2.0, 7), nullptr);
  EXPECT_EQ(memo.lookup(net.a, net.b, 1.5, 2.0, 7), nullptr);  // ready
  EXPECT_EQ(memo.lookup(net.a, net.b, 1.0, 3.0, 7), nullptr);  // cost
  EXPECT_EQ(memo.lookup(net.b, net.a, 1.0, 2.0, 7), nullptr);  // reversed
}

TEST(ProbedRouteCache, CleanRollbackRestoresValidity) {
  TwoPathNetwork net;
  sched::ExclusiveNetworkState network(net.topology, 4);
  ProbedRouteCache memo;
  const double cost = 2.0;
  const LoadedProbe probe{network, cost};

  const std::uint64_t g0 = network.generation();
  const Route route =
      dijkstra_route_probe(net.topology, net.a, net.b, 0.0, probe);
  memo.store(net.a, net.b, 0.0, cost, g0, route);

  // Tentative commit + immediate uncommit (the Basic Algorithm's
  // evaluation pattern) provably restores the timelines, so the
  // generation — and with it the memo's validity — must come back.
  network.commit_edge_basic(dag::EdgeId(0u), Route{net.a_s1, net.s1_b},
                            0.0, 50.0);
  EXPECT_EQ(memo.lookup(net.a, net.b, 0.0, cost, network.generation()),
            nullptr);
  network.uncommit_edge(dag::EdgeId(0u));
  EXPECT_EQ(network.generation(), g0);
  const Route* hit =
      memo.lookup(net.a, net.b, 0.0, cost, network.generation());
  ASSERT_NE(hit, nullptr);
  // The restored-state memo answer matches a fresh search exactly.
  EXPECT_EQ(*hit,
            dijkstra_route_probe(net.topology, net.a, net.b, 0.0, probe));

  // Out-of-order rollback cannot prove restoration: generation must NOT
  // return to a previously seen value.
  network.commit_edge_basic(dag::EdgeId(1u), Route{net.a_s1, net.s1_b},
                            0.0, 10.0);
  network.commit_edge_basic(dag::EdgeId(2u), Route{net.a_s1, net.s1_b},
                            0.0, 10.0);
  const std::uint64_t g_both = network.generation();
  network.uncommit_edge(dag::EdgeId(1u));  // not the latest mutation
  EXPECT_NE(network.generation(), g0);
  EXPECT_NE(network.generation(), g_both);
}

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
  RoutingWorkspace workspace;
  for (std::size_t i = 0; i < procs.size(); i += 2) {
    for (std::size_t j = 1; j < procs.size(); j += 3) {
      if (procs[i] == procs[j]) continue;
      const Route fresh =
          dijkstra_route_probe(t, procs[i], procs[j], 0.5, probe);
      const Route reused = dijkstra_route_probe(t, procs[i], procs[j],
                                                0.5, probe, &workspace);
      EXPECT_EQ(fresh, reused);
    }
  }
}

}  // namespace
}  // namespace edgesched::net
