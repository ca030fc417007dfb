// The hot paths allocate nothing once warm.
//
// This executable replaces the global `operator new`/`operator delete`
// with counting versions that forward to `malloc`/`free` (so a sanitizer
// build still sees every allocation), and asserts a zero count across:
//
//   * `Topology::processor_speed`, which selection calls once per
//     candidate processor per task,
//   * a warm `StaticRouteTable::route` lookup,
//   * a warm `dijkstra_route_probe` into a reused route and workspace,
//   * a warm `goal_directed_route_probe` (BBSA's bandwidth-probe search)
//     once its target's hop row exists,
//   * a warm `UniquePathRouter::route` walk into a reused route, and
//   * `MachineState::commit` (timelines reserved) and the speed groups'
//     winner query, which MLS selection runs once per task.
//
// A live-block count (up in `new`, down in `delete`) also pins a
// schedule's footprint: its edge data sits in a few per-schedule arenas,
// not in vectors per edge, so a 1000-task schedule owns a handful of
// heap blocks and copies in as many. The same holds for a built task
// graph: flat arrays and CSR adjacency, no vectors per task.
//
// It also pins that `throw_if`, whose message is a view built into a
// string only on the throwing path, still throws `std::invalid_argument`
// with the exact message text.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "dag/generators.hpp"
#include "net/builders.hpp"
#include "net/routing.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/engine.hpp"
#include "sched/network_state.hpp"
#include "sched/platform.hpp"
#include "schedule_canon.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::ptrdiff_t> g_live_blocks{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_blocks.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  }
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms too (std::stable_sort's buffer uses them): otherwise
// the runtime's versions allocate what the replaced delete frees.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace edgesched {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::ptrdiff_t live_blocks() {
  return g_live_blocks.load(std::memory_order_relaxed);
}

// A 1000-task DAG on an 8x8 torus: hundreds of routed edges of several
// hops each. Once the platform is warm (route table filled, workspace
// pooled), whatever a run leaves allocated is the returned schedule.
TEST(HotPathAlloc, ScheduleOwnsAFewBlocksAndCopiesInAFew) {
  Rng rng(5);
  dag::LayeredDagParams params;
  params.num_tasks = 1000;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const net::Topology topology =
      net::torus2d(8, 8, net::SpeedConfig{}, rng);
  const sched::PlatformContext platform(topology);
  constexpr std::ptrdiff_t kMaxBlocks = 8;
  for (const sched::AlgorithmSpec& spec :
       {sched::ba_spec(), sched::oihsa_spec(), sched::bbsa_spec(),
        sched::packet_ba_spec()}) {
    const sched::SpecScheduler scheduler(spec);
    (void)scheduler.schedule(graph, platform);  // warm the platform
    const std::ptrdiff_t before = live_blocks();
    const sched::Schedule schedule = scheduler.schedule(graph, platform);
    const std::ptrdiff_t owned = live_blocks() - before;
    const std::size_t allocations_before = allocations();
    const sched::Schedule copy = schedule;
    const std::size_t copied = allocations() - allocations_before;
    EXPECT_LE(owned, kMaxBlocks) << spec.name;
    EXPECT_LE(copied, static_cast<std::size_t>(kMaxBlocks)) << spec.name;
    EXPECT_EQ(test::canonical_schedule(graph, copy),
              test::canonical_schedule(graph, schedule))
        << spec.name;
  }
}

// The builder's scratch (degree counts, the duplicate check's out-edge
// lists) is gone once `build()` returns; what stays are the graph's flat
// arrays.
TEST(HotPathAlloc, TaskGraphOwnsAFewBlocksAndCopiesInAFew) {
  constexpr std::ptrdiff_t kMaxBlocks = 8;
  Rng rng(5);
  dag::LayeredDagParams params;
  params.num_tasks = 1000;
  const std::ptrdiff_t before = live_blocks();
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const std::ptrdiff_t owned = live_blocks() - before;
  const std::size_t allocations_before = allocations();
  const dag::TaskGraph copy = graph;
  const std::size_t copied = allocations() - allocations_before;
  EXPECT_LE(owned, kMaxBlocks);
  EXPECT_LE(copied, static_cast<std::size_t>(kMaxBlocks));
  EXPECT_EQ(copy.fingerprint(), graph.fingerprint());
}

TEST(HotPathAlloc, ProcessorSpeedDoesNotAllocate) {
  Rng rng(1);
  const net::Topology topology =
      net::fat_tree(4, 4, net::SpeedConfig{}, rng);
  const auto& procs = topology.processors();
  double sum = 0.0;
  const std::size_t before = allocations();
  for (std::size_t i = 0; i < 10000; ++i) {
    sum += topology.processor_speed(procs[i % procs.size()]);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(HotPathAlloc, WarmStaticRouteLookupDoesNotAllocate) {
  Rng rng(2);
  const net::Topology topology =
      net::fat_tree(4, 4, net::SpeedConfig{}, rng);
  const net::StaticRouteTable table(topology);
  const auto& procs = topology.processors();
  (void)table.route(procs[0], procs[1]);  // fills source 0
  std::size_t hops = 0;
  const std::size_t before = allocations();
  for (const net::NodeId to : procs) {
    hops += table.route(procs[0], to).size();
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(hops, 0u);
}

TEST(HotPathAlloc, WarmRouteSearchDoesNotAllocate) {
  Rng rng(3);
  const net::Topology topology =
      net::fat_tree(4, 4, net::SpeedConfig{}, rng);
  const auto& procs = topology.processors();
  sched::ExclusiveNetworkState network(topology, 4);
  for (std::uint32_t e = 0; e < 4; ++e) {
    (void)network.commit_edge_basic(
        dag::EdgeId(e), net::bfs_route(topology, procs[e], procs[15 - e]),
        0.0, 3.0);
  }
  const auto probe = [&network](net::LinkId link,
                                const net::ProbeState& state) {
    const timeline::Placement placement = network.probe_link(
        link, state.earliest_start, state.min_finish, 2.0);
    return net::ProbeResult{placement.start, placement.finish};
  };
  const net::TransitAdjacency adjacency(topology);
  net::RoutingWorkspace workspace;
  net::Route route;
  net::dijkstra_route_probe(adjacency, procs[0], procs[15], 0.5, probe,
                            workspace, route);  // warm-up
  const net::Route expected = route;
  const std::size_t before = allocations();
  net::dijkstra_route_probe(adjacency, procs[0], procs[15], 0.5, probe,
                            workspace, route);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(route, expected);
  EXPECT_FALSE(route.empty());
}

// The first search to a target fills that target's hop row; every later
// search to it, from any source, reads the row and allocates nothing.
TEST(HotPathAlloc, WarmGoalDirectedSearchDoesNotAllocate) {
  Rng rng(6);
  const net::Topology topology =
      net::torus2d(4, 4, net::SpeedConfig{}, rng);
  const auto& procs = topology.processors();
  sched::BandwidthNetworkState network(topology);
  for (std::uint32_t e = 0; e < 4; ++e) {
    (void)network.commit_edge(
        net::bfs_route(topology, procs[e], procs[15 - e]), 0.0, 3.0);
  }
  const auto probe = [&network](net::LinkId link,
                                const net::ProbeState& state) {
    return network.probe(link, state.earliest_start, state.min_finish, 2.0);
  };
  const net::TransitAdjacency adjacency(topology);
  net::RoutingWorkspace workspace;
  net::Route route;
  route.reserve(topology.num_nodes());  // room for any simple route
  net::goal_directed_route_probe(adjacency, procs[0], procs[10], 0.5, probe,
                                 workspace, route);  // fills the row
  const net::Route expected = route;
  const std::size_t before = allocations();
  net::goal_directed_route_probe(adjacency, procs[0], procs[10], 0.5, probe,
                                 workspace, route);
  net::goal_directed_route_probe(adjacency, procs[5], procs[10], 0.5, probe,
                                 workspace, route);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_FALSE(route.empty());
  net::goal_directed_route_probe(adjacency, procs[0], procs[10], 0.5, probe,
                                 workspace, route);
  EXPECT_EQ(route, expected);
}

TEST(HotPathAlloc, WarmUniquePathWalkDoesNotAllocate) {
  Rng rng(5);
  const net::Topology topology =
      net::fat_tree(4, 4, net::SpeedConfig{}, rng);
  const net::UniquePathRouter router(topology);
  ASSERT_TRUE(router.applies());
  const auto& procs = topology.processors();
  net::Route route;
  router.route(procs[0], procs[15], route);  // warm-up: the longest route
  std::size_t hops = 0;
  const std::size_t before = allocations();
  for (const net::NodeId from : procs) {
    for (const net::NodeId to : procs) {
      router.route(from, to, route);
      hops += route.size();
    }
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(hops, 0u);
}

TEST(HotPathAlloc, MachineStateCommitAndGroupQueryDoNotAllocate) {
  Rng rng(4);
  net::SpeedConfig speeds;
  speeds.heterogeneous = true;
  speeds.processor_speed_max = 3.0;
  const net::Topology topology = net::fat_tree(4, 4, speeds, rng);
  const auto& procs = topology.processors();
  sched::MachineState machines(topology);
  machines.reserve_slots(8);
  double sum = 0.0;
  const std::size_t before = allocations();
  for (std::uint32_t t = 0; t < 64; ++t) {
    const sched::MachineState::Estimate best =
        machines.least_group_estimate(0.5 * t, 2.0);
    sum += best.score;
    const net::NodeId p = procs[t % procs.size()];
    machines.commit(p, dag::TaskId(t), machines.finish_time(p), 1.0);
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(HotPathAlloc, ThrowIfKeepsTypeAndMessage) {
  try {
    throw_if(true, "Topology::processor_speed: node is not a processor");
    FAIL() << "throw_if(true, literal) returned";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "Topology::processor_speed: node is not a processor");
  }
  const std::string name = "bbsa";
  try {
    throw_if(true, "execute: unknown recovery algorithm '" + name + "'");
    FAIL() << "throw_if(true, string) returned";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "execute: unknown recovery algorithm 'bbsa'");
  }
  const std::size_t before = allocations();
  throw_if(false, "a literal longer than the small-string buffer");
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace edgesched
