// The goal-directed search's hop rows (`TransitAdjacency::hops_to`).
//
// A row holds every node's hop distance to one target over all links. The
// search is exact only if that is a consistent lower bound, so each row
// must be the reverse-BFS distance: 0 at the target, no link u -> v with
// hops(u) > hops(v) + 1, a link one hop closer out of every other node
// that reaches the target, and `kUnreachable` where none does.
//
// Rows fill on the first search to their target, under a per-target
// once-flag, and every run on one `sched::PlatformContext` shares them.
// Several threads making the first search to one target at once must see
// one row, filled once, and all find plain Dijkstra's routes. This suite
// runs under TSan in CI, so a race in the fill fails the build.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "sched/network_state.hpp"
#include "sched/platform.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

Topology make_topology(std::uint64_t seed, Rng& rng) {
  switch (seed % 4) {
    case 0: return torus2d(4, 4, SpeedConfig{}, rng);
    case 1: return hypercube(4, SpeedConfig{}, rng);
    case 2: return fat_tree(3, 4, SpeedConfig{}, rng);
    default: {
      RandomWanParams wan;
      wan.num_processors = 12;
      return random_wan(wan, rng);
    }
  }
}

void expect_bfs_row(const Topology& topology, NodeId target,
                    std::span<const std::uint32_t> row) {
  constexpr std::uint32_t kUnreachable = TransitAdjacency::kUnreachable;
  ASSERT_EQ(row.size(), topology.num_nodes());
  ASSERT_EQ(row[target.index()], 0u);
  for (std::size_t l = 0; l < topology.num_links(); ++l) {
    const Link& link = topology.link(LinkId(l));
    if (row[link.dst.index()] != kUnreachable) {
      ASSERT_LE(row[link.src.index()], row[link.dst.index()] + 1) << l;
    }
  }
  for (std::size_t v = 0; v < topology.num_nodes(); ++v) {
    if (v == target.index() || row[v] == kUnreachable) {
      continue;
    }
    bool closer = false;
    for (const LinkId l : topology.out_links(NodeId(v))) {
      closer = closer || row[topology.link(l).dst.index()] + 1 == row[v];
    }
    ASSERT_TRUE(closer) << "node " << v << " to " << target.value();
  }
}

class HopRowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HopRowProperty, RowsAreReverseBfsDistances) {
  Rng rng(GetParam());
  const Topology topology = make_topology(GetParam(), rng);
  const TransitAdjacency adjacency(topology);
  for (std::size_t t = 0; t < topology.num_nodes(); ++t) {
    const std::span<const std::uint32_t> row = adjacency.hops_to(NodeId(t));
    expect_bfs_row(topology, NodeId(t), row);
    // A filled row is never rewritten.
    EXPECT_EQ(adjacency.hops_to(NodeId(t)).data(), row.data());
  }
}

TEST_P(HopRowProperty, ConcurrentFirstSearchesShareOneRow) {
  Rng rng(GetParam());
  const Topology topology = make_topology(GetParam(), rng);
  const sched::PlatformContext platform(topology);
  const std::vector<NodeId>& procs = topology.processors();
  sched::BandwidthNetworkState network(topology);
  for (std::size_t e = 0; e < 12; ++e) {
    const NodeId from = procs[rng.index(procs.size())];
    const NodeId to = procs[rng.index(procs.size())];
    if (from != to) {
      (void)network.commit_edge(platform.routes().route(from, to),
                                rng.uniform_real(0.0, 20.0),
                                rng.uniform_real(0.5, 6.0));
    }
  }
  const auto probe = [&network](LinkId l, const ProbeState& s) {
    return network.probe(l, s.earliest_start, s.min_finish, 2.5);
  };
  const NodeId target = procs.back();

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Route>> routes(kThreads);
  std::vector<const std::uint32_t*> rows(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const sched::WorkspaceLease lease = platform.checkout();
      routes[t].resize(procs.size());
      start.arrive_and_wait();
      // Each thread walks the sources from its own offset, so the first
      // search to the target comes from a different source in each.
      for (std::size_t i = 0; i < procs.size(); ++i) {
        const std::size_t s = (i + t * 3) % procs.size();
        goal_directed_route_probe(platform.transit(), procs[s], target, 1.0,
                                  probe, lease->routing, routes[t][s]);
      }
      rows[t] = platform.transit().hops_to(target).data();
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  expect_bfs_row(topology, target, platform.transit().hops_to(target));
  RoutingWorkspace workspace;
  Route reference;
  for (std::size_t s = 0; s < procs.size(); ++s) {
    dijkstra_route_probe(platform.transit(), procs[s], target, 1.0, probe,
                         workspace, reference);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(routes[t][s], reference)
          << "thread " << t << " from " << procs[s].value();
    }
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(rows[t], platform.transit().hops_to(target).data()) << t;
  }
}

// On a one-way chain a -> b -> c, neither b nor c can reach a.
TEST(HopRow, NodesWithoutAPathAreUnreachable) {
  Topology topology;
  const NodeId a = topology.add_processor();
  const NodeId b = topology.add_processor();
  const NodeId c = topology.add_processor();
  (void)topology.add_link(a, b);
  (void)topology.add_link(b, c);
  const TransitAdjacency adjacency(topology);
  const std::span<const std::uint32_t> to_a = adjacency.hops_to(a);
  EXPECT_EQ(to_a[a.index()], 0u);
  EXPECT_EQ(to_a[b.index()], TransitAdjacency::kUnreachable);
  EXPECT_EQ(to_a[c.index()], TransitAdjacency::kUnreachable);
  const std::span<const std::uint32_t> to_c = adjacency.hops_to(c);
  EXPECT_EQ(to_c[a.index()], 2u);
  EXPECT_EQ(to_c[b.index()], 1u);
  EXPECT_EQ(to_c[c.index()], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopRowProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

}  // namespace
}  // namespace edgesched::net
