// Equivalence property of the source-sharded BFS route cache.
//
// `RouteCache` replaced its (from, to)-keyed map with dense per-source
// shards for O(1) lookups. It is a pure memo layer: against the same
// query sequence it must return exactly the routes a straightforward
// map-based memo returns.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"

namespace edgesched::net {
namespace {

class RouteCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

// Random (from, to) query storms over a multi-path topology: every
// sharded answer must equal both a fresh BFS and a map-keyed memo.
TEST_P(RouteCacheProperty, ShardedBfsCacheMatchesMapMemo) {
  Rng rng(GetParam());
  const Topology topo = mesh2d(4, 4, SpeedConfig{}, rng);
  RouteCache cache(topo);
  std::map<std::pair<NodeId, NodeId>, Route> reference;
  const auto nodes = static_cast<std::int64_t>(topo.num_nodes());
  for (std::size_t i = 0; i < 2000; ++i) {
    const NodeId from(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)));
    const NodeId to(static_cast<std::size_t>(rng.uniform_int(0, nodes - 1)));
    const Route& got = cache.route(from, to);
    const auto key = std::make_pair(from, to);
    auto it = reference.find(key);
    if (it == reference.end()) {
      it = reference.emplace(key, bfs_route(topo, from, to)).first;
    }
    ASSERT_EQ(got, it->second) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCacheProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace edgesched::net
