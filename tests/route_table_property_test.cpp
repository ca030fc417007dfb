// Concurrent lazy fill of the minimal-route table.
//
// `StaticRouteTable` fills a source's routes on that source's first
// `route()` call, under a per-source once-flag, and is shared by every
// run on one `PlatformContext`. Several threads therefore race to fill
// the same sources. Each thread draws its own random processor pairs, so
// the fill order differs from thread to thread; every answer must still
// equal a fresh `bfs_route`. This suite runs under TSan in CI, so a race
// in the fill fails the build.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

// Fabrics with and without switches, with multiple equal-hop paths.
Topology make_topology(std::uint64_t seed, Rng& rng) {
  switch (seed % 4) {
    case 0: return mesh2d(4, 4, SpeedConfig{}, rng);
    case 1: return torus2d(4, 4, SpeedConfig{}, rng);
    case 2: return fat_tree(4, 4, SpeedConfig{}, rng);
    default: {
      RandomWanParams wan;
      wan.num_processors = 12;
      return random_wan(wan, rng);
    }
  }
}

class StaticRouteTableProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticRouteTableProperty, ConcurrentLazyFillMatchesBfs) {
  Rng rng(GetParam());
  const Topology topo = make_topology(GetParam(), rng);
  const StaticRouteTable table(topo);
  const std::vector<NodeId>& procs = topo.processors();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQueries = 400;
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng queries(GetParam() * 100 + t);
      for (std::size_t i = 0; i < kQueries; ++i) {
        const NodeId from = procs[queries.index(procs.size())];
        const NodeId to = procs[queries.index(procs.size())];
        if (table.route(from, to) != bfs_route(topo, from, to)) {
          failures[t].push_back(std::to_string(from.index()) + "->" +
                                std::to_string(to.index()));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "thread " << t << " got " << failures[t].size()
        << " wrong routes, first " << failures[t].front();
  }

  // Every pair, after the race: filled shards are never rewritten, so a
  // route is one stable object.
  for (const NodeId from : procs) {
    for (const NodeId to : procs) {
      ASSERT_EQ(table.route(from, to), bfs_route(topo, from, to));
      ASSERT_EQ(&table.route(from, to), &table.route(from, to));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticRouteTableProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace edgesched::net
