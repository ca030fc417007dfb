// Micro-benchmarks of the routing layer: BFS minimal routing vs the
// probe-driven Dijkstra used by the modified routing algorithm, and the
// walk that replaces both on fabrics with one simple path per pair.
#include <benchmark/benchmark.h>

#include "net/builders.hpp"
#include "net/routing.hpp"

namespace {

using namespace edgesched;

net::Topology wan(std::size_t procs, std::uint64_t seed) {
  Rng rng(seed);
  net::RandomWanParams params;
  params.num_processors = procs;
  return net::random_wan(params, rng);
}

void BM_BfsRoute(benchmark::State& state) {
  const net::Topology topo =
      wan(static_cast<std::size_t>(state.range(0)), 1);
  const auto& procs = topo.processors();
  std::size_t i = 0;
  for (auto _ : state) {
    const net::NodeId from = procs[i % procs.size()];
    const net::NodeId to = procs[(i * 7 + 3) % procs.size()];
    if (from != to) {
      benchmark::DoNotOptimize(net::bfs_route(topo, from, to));
    }
    ++i;
  }
}
BENCHMARK(BM_BfsRoute)->Arg(16)->Arg(64)->Arg(128);

void BM_StaticRouteTable(benchmark::State& state) {
  const net::Topology topo =
      wan(static_cast<std::size_t>(state.range(0)), 2);
  const net::StaticRouteTable table(topo);
  const auto& procs = topo.processors();
  std::size_t i = 0;
  for (auto _ : state) {
    const net::NodeId from = procs[i % procs.size()];
    const net::NodeId to = procs[(i * 7 + 3) % procs.size()];
    if (from != to) {
      benchmark::DoNotOptimize(table.route(from, to));
    }
    ++i;
  }
}
BENCHMARK(BM_StaticRouteTable)->Arg(16)->Arg(64)->Arg(128);

void BM_DijkstraProbeRoute(benchmark::State& state) {
  const net::Topology topo =
      wan(static_cast<std::size_t>(state.range(0)), 3);
  const auto& procs = topo.processors();
  const auto probe = [&](net::LinkId l, const net::ProbeState& s) {
    const double duration = 1.0 / topo.link_speed(l);
    const double finish =
        std::max(s.earliest_start + duration, s.min_finish);
    return net::ProbeResult{finish - duration, finish};
  };
  // Arc lists built once per topology, one workspace and one route
  // buffer reused across searches — the pattern every scheduler uses
  // (per-platform adjacency, per-run workspace, epoch-stamped label
  // resets).
  const net::TransitAdjacency adjacency(topo);
  net::RoutingWorkspace ws;
  net::Route route;
  std::size_t i = 0;
  for (auto _ : state) {
    const net::NodeId from = procs[i % procs.size()];
    const net::NodeId to = procs[(i * 7 + 3) % procs.size()];
    if (from != to) {
      net::dijkstra_route_probe(adjacency, from, to, 0.0, probe, ws, route);
      benchmark::DoNotOptimize(route.data());
    }
    ++i;
  }
}
BENCHMARK(BM_DijkstraProbeRoute)->Arg(16)->Arg(64)->Arg(128);

// The walk on a fat tree of 16-processor leaves, the engine's route on
// every unique-path fabric, into one reused route buffer.
void BM_UniquePathWalk(benchmark::State& state) {
  Rng rng(4);
  const auto procs_total = static_cast<std::size_t>(state.range(0));
  const net::Topology topo =
      net::fat_tree(procs_total / 16, 16, net::SpeedConfig{}, rng);
  const net::UniquePathRouter router(topo);
  const auto& procs = topo.processors();
  net::Route route;
  std::size_t i = 0;
  for (auto _ : state) {
    router.route(procs[i % procs.size()],
                 procs[(i * 7 + 3) % procs.size()], route);
    benchmark::DoNotOptimize(route.data());
    ++i;
  }
}
BENCHMARK(BM_UniquePathWalk)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
