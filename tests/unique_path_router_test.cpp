// Exactness of the unique-path walk.
//
// `net::UniquePathRouter` applies to a fabric whose undirected link graph
// is a forest, where every link has its reverse and no two links share
// (src, dst). There every pair has one simple route, so the §4.3 probe
// search and BFS can only return it, and the engine walks instead of
// searching. This suite checks that claim against the searches
// themselves:
//
//   * on seeded random qualifying fabrics (duplex and half-duplex cable
//     trees with processors as relays, stars, fat trees, a two-member
//     bus) under seeded random link loads, the walk's route equals
//     `dijkstra_route_probe`'s and `bfs_route`'s for every processor
//     pair, under the exclusive and the bandwidth probe;
//   * hand-built fabrics with a second path or a missing reverse link
//     keep the search;
//   * ends in different components throw the search's typed error;
//   * the engine runs no search on a tree and keeps it on a torus.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "net/routing.hpp"
#include "obs/counters.hpp"
#include "sched/engine.hpp"
#include "sched/network_state.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

/// A random tree of `nodes` nodes: node i > 0 hangs off a random earlier
/// node by one cable (duplex, or half-duplex when `half_duplex`), in a
/// random direction, so processors relay too. The first and last nodes
/// are processors; the rest are processors or switches at random.
Topology random_tree(std::size_t nodes, bool half_duplex, Rng& rng) {
  Topology topology;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < nodes; ++i) {
    const bool processor =
        i == 0 || i + 1 == nodes || rng.uniform_real(0.0, 1.0) < 0.6;
    ids.push_back(processor
                      ? topology.add_processor(rng.uniform_real(1.0, 4.0))
                      : topology.add_switch());
    if (i == 0) {
      continue;
    }
    NodeId a = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))];
    NodeId b = ids.back();
    if (rng.uniform_int(0, 1) == 1) {
      std::swap(a, b);
    }
    const double speed = rng.uniform_real(1.0, 10.0);
    if (half_duplex) {
      (void)topology.add_bus({a, b}, speed);
    } else {
      (void)topology.add_duplex_link(a, b, speed);
    }
  }
  return topology;
}

struct Case {
  std::string name;
  std::function<Topology(Rng&)> build;
};

std::vector<Case> unique_path_fabrics() {
  SpeedConfig heterogeneous;
  heterogeneous.heterogeneous = true;
  return {
      {"duplex_tree", [](Rng& r) { return random_tree(24, false, r); }},
      {"half_duplex_tree", [](Rng& r) { return random_tree(18, true, r); }},
      {"switched_star",
       [=](Rng& r) { return switched_star(7, heterogeneous, r); }},
      {"fat_tree", [=](Rng& r) { return fat_tree(3, 4, heterogeneous, r); }},
      {"switch_tree",
       [=](Rng& r) { return switch_tree(3, 2, 2, heterogeneous, r); }},
      {"bus2", [=](Rng& r) { return bus(2, heterogeneous, r); }},
  };
}

/// Edges pre-booked on the network before the routes are compared.
constexpr std::size_t kBookedEdges = 40;

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

/// The walk against the probe search and BFS for every processor pair;
/// `ready` is drawn per pair so searches start inside the load.
template <typename Probe>
void expect_walk_matches_searches(const Topology& topology, Rng& rng,
                                  const Probe& probe,
                                  const std::string& where) {
  const UniquePathRouter router(topology);
  ASSERT_TRUE(router.applies()) << where;
  const TransitAdjacency adjacency(topology);
  RoutingWorkspace workspace;
  Route walked;
  Route searched;
  for (const NodeId from : topology.processors()) {
    for (const NodeId to : topology.processors()) {
      const double ready = rng.uniform_real(0.0, 40.0);
      router.route(from, to, walked);
      dijkstra_route_probe(adjacency, from, to, ready, probe, workspace,
                           searched);
      const std::string pair = where + " " + std::to_string(from.value()) +
                               "->" + std::to_string(to.value());
      ASSERT_EQ(walked, searched) << pair;
      ASSERT_EQ(walked, bfs_route(topology, from, to)) << pair;
    }
  }
}

class UniquePathProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniquePathProperty, WalkMatchesExclusiveProbeSearch) {
  for (const Case& c : unique_path_fabrics()) {
    Rng rng(GetParam() * 139 + c.name.size());
    const Topology topology = c.build(rng);
    sched::ExclusiveNetworkState state(topology, kBookedEdges);
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      const timeline::Placement placement =
          state.probe_link(l, s.earliest_start, s.min_finish, cost);
      return ProbeResult{placement.start, placement.finish};
    };
    expect_walk_matches_searches(topology, rng, probe,
                                 c.name + "/exclusive/idle");
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      (void)state.commit_edge_basic(dag::EdgeId(e), random_route(topology, rng),
                                    rng.uniform_real(0.0, 50.0),
                                    rng.uniform_real(0.5, 8.0));
    }
    expect_walk_matches_searches(topology, rng, probe,
                                 c.name + "/exclusive/loaded");
  }
}

TEST_P(UniquePathProperty, WalkMatchesBandwidthProbeSearch) {
  for (const Case& c : unique_path_fabrics()) {
    Rng rng(GetParam() * 149 + c.name.size());
    const Topology topology = c.build(rng);
    sched::BandwidthNetworkState state(topology);
    const double cost = rng.uniform_real(0.5, 6.0);
    const auto probe = [&](LinkId l, const ProbeState& s) {
      return state.probe(l, s.earliest_start, s.min_finish, cost);
    };
    expect_walk_matches_searches(topology, rng, probe,
                                 c.name + "/bandwidth/idle");
    for (std::size_t e = 0; e < kBookedEdges; ++e) {
      (void)state.commit_edge(random_route(topology, rng),
                              rng.uniform_real(0.0, 50.0),
                              rng.uniform_real(0.5, 8.0));
    }
    expect_walk_matches_searches(topology, rng, probe,
                                 c.name + "/bandwidth/loaded");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniquePathProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Fabrics with a second simple path somewhere, or a link without its
// reverse, keep the search.
TEST(UniquePathRouter, FabricsWithAnotherPathKeepTheSearch) {
  {
    // Two duplex cables between one pair.
    Topology topology;
    const NodeId a = topology.add_processor();
    const NodeId b = topology.add_processor();
    (void)topology.add_duplex_link(a, b);
    (void)topology.add_duplex_link(a, b);
    EXPECT_FALSE(UniquePathRouter(topology).applies()) << "parallel cables";
  }
  {
    // A star plus one cable between two leaves closes a cycle.
    Rng rng(1);
    Topology topology = switched_star(4, SpeedConfig{}, rng);
    EXPECT_TRUE(UniquePathRouter(topology).applies());
    (void)topology.add_duplex_link(topology.processors()[0],
                                   topology.processors()[2]);
    EXPECT_FALSE(UniquePathRouter(topology).applies()) << "tree plus cable";
  }
  {
    // A one-way link: s reaches b, b cannot answer.
    Topology topology;
    const NodeId a = topology.add_processor();
    const NodeId b = topology.add_processor();
    const NodeId s = topology.add_switch();
    (void)topology.add_duplex_link(a, s);
    (void)topology.add_link(s, b);
    EXPECT_FALSE(UniquePathRouter(topology).applies()) << "one-way link";
  }
  {
    // A three-member bus is a triangle of links.
    Rng rng(2);
    EXPECT_FALSE(UniquePathRouter(bus(3, SpeedConfig{}, rng)).applies())
        << "3-member bus";
  }
}

// A forest routes inside each tree and throws the search's typed error
// across trees.
TEST(UniquePathRouter, DisconnectedForestThrowsUnreachable) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const NodeId c = topology.add_processor();
  const NodeId d = topology.add_processor();
  const auto [a_b, b_a] = topology.add_duplex_link(a, b);
  (void)b_a;
  (void)topology.add_duplex_link(c, d);
  const UniquePathRouter router(topology);
  ASSERT_TRUE(router.applies());
  Route route;
  router.route(a, b, route);
  EXPECT_EQ(route, (Route{a_b}));
  router.route(a, a, route);
  EXPECT_TRUE(route.empty());
  try {
    router.route(a, d, route);
    FAIL() << "a route across components";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("destination unreachable"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(router.route(a, NodeId(7u), route), std::invalid_argument);
}

// The engine takes the walk on a tree and the search elsewhere.
TEST(UniquePathRouter, EngineSearchesOnlyOffTrees) {
  Rng rng(3);
  dag::LayeredDagParams params;
  params.num_tasks = 60;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const Topology tree = fat_tree(3, 4, SpeedConfig{}, rng);
  const Topology torus = torus2d(3, 4, SpeedConfig{}, rng);
  obs::Counter& relaxations = obs::hot_counters().dijkstra_relaxations;
  obs::Counter& routed = obs::hot_counters().edges_routed;
  for (const sched::AlgorithmSpec& spec :
       {sched::oihsa_spec(), sched::bbsa_spec()}) {
    const std::uint64_t relaxed = relaxations.value();
    const std::uint64_t edges = routed.value();
    (void)sched::SpecScheduler(spec).schedule(graph, tree);
    EXPECT_GT(routed.value(), edges) << spec.name;
    EXPECT_EQ(relaxations.value(), relaxed) << spec.name << " on a tree";
    (void)sched::SpecScheduler(spec).schedule(graph, torus);
    EXPECT_GT(relaxations.value(), relaxed) << spec.name << " on a torus";
  }
}

}  // namespace
}  // namespace edgesched::net
