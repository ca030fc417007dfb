// Property suite: every algorithm × topology family × seed must produce a
// schedule that passes the full independent validator, plus generic
// invariants (determinism, lower bounds, improvement sanity).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

enum class TopologyFamily {
  kFullyConnected,
  kStar,
  kRing,
  kFatTree,
  kRandomWan,
  kRandomWanHetero,
  kBus,
};

std::string family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kFullyConnected: return "FullyConnected";
    case TopologyFamily::kStar: return "Star";
    case TopologyFamily::kRing: return "Ring";
    case TopologyFamily::kFatTree: return "FatTree";
    case TopologyFamily::kRandomWan: return "RandomWan";
    case TopologyFamily::kRandomWanHetero: return "RandomWanHetero";
    case TopologyFamily::kBus: return "Bus";
  }
  return "?";
}

net::Topology build(TopologyFamily family, Rng& rng) {
  net::SpeedConfig speeds;
  switch (family) {
    case TopologyFamily::kFullyConnected:
      return net::fully_connected(4, speeds, rng);
    case TopologyFamily::kStar:
      return net::switched_star(5, speeds, rng);
    case TopologyFamily::kRing:
      return net::ring(5, speeds, rng);
    case TopologyFamily::kFatTree:
      return net::fat_tree(2, 3, speeds, rng);
    case TopologyFamily::kRandomWan: {
      net::RandomWanParams params;
      params.num_processors = 8;
      return net::random_wan(params, rng);
    }
    case TopologyFamily::kRandomWanHetero: {
      net::RandomWanParams params;
      params.num_processors = 8;
      params.speeds.heterogeneous = true;
      return net::random_wan(params, rng);
    }
    case TopologyFamily::kBus:
      return net::bus(4, speeds, rng);
  }
  throw std::invalid_argument("unknown family");
}

enum class Algo { kBa, kOihsa, kBbsa, kPacketBa };

std::string algo_name(Algo algo) {
  switch (algo) {
    case Algo::kBa: return "BA";
    case Algo::kOihsa: return "OIHSA";
    case Algo::kBbsa: return "BBSA";
    case Algo::kPacketBa: return "PacketBA";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_scheduler(Algo algo) {
  switch (algo) {
    case Algo::kBa: return std::make_unique<SpecScheduler>(ba_spec());
    case Algo::kOihsa:
      return std::make_unique<SpecScheduler>(oihsa_spec());
    case Algo::kBbsa: return std::make_unique<SpecScheduler>(bbsa_spec());
    case Algo::kPacketBa:
      return std::make_unique<SpecScheduler>(packet_ba_spec());
  }
  throw std::invalid_argument("unknown algo");
}

using Param = std::tuple<Algo, TopologyFamily, std::uint64_t, double>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const Algo algo = std::get<0>(info.param);
  const TopologyFamily family = std::get<1>(info.param);
  const std::uint64_t seed = std::get<2>(info.param);
  const double ccr = std::get<3>(info.param);
  return algo_name(algo) + "_" + family_name(family) + "_s" +
         std::to_string(seed) + "_ccr" +
         std::to_string(static_cast<int>(ccr * 10));
}

class ScheduleProperty : public ::testing::TestWithParam<Param> {};

TEST_P(ScheduleProperty, ValidDeterministicAndBounded) {
  const auto [algo, family, seed, ccr] = GetParam();
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks =
      static_cast<std::size_t>(rng.uniform_int(15, 45));
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, ccr);
  const net::Topology topo = build(family, rng);
  const auto scheduler = make_scheduler(algo);

  const Schedule s = scheduler->schedule(graph, topo);
  const auto violations = validate(graph, topo, s);
  EXPECT_TRUE(violations.empty())
      << algo_name(algo) << " on " << family_name(family) << ": "
      << (violations.empty() ? "" : violations.front());

  // Determinism: identical inputs give an identical makespan.
  const Schedule again = scheduler->schedule(graph, topo);
  EXPECT_DOUBLE_EQ(s.makespan(), again.makespan());

  // Every task placed, finish = makespan at the latest task.
  double latest = 0.0;
  for (dag::TaskId t : graph.all_tasks()) {
    EXPECT_TRUE(s.task(t).placed());
    latest = std::max(latest, s.task(t).finish);
  }
  EXPECT_DOUBLE_EQ(latest, s.makespan());

  // Lower bound: the computation-only critical path divided by the
  // fastest processor speed.
  double fastest = 0.0;
  for (net::NodeId p : topo.processors()) {
    fastest = std::max(fastest, topo.processor_speed(p));
  }
  const auto bl = dag::bottom_levels_computation_only(graph);
  const double bound =
      *std::max_element(bl.begin(), bl.end()) / fastest;
  EXPECT_GE(s.makespan(), bound - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleProperty,
    ::testing::Combine(
        ::testing::Values(Algo::kBa, Algo::kOihsa, Algo::kBbsa,
                          Algo::kPacketBa),
        ::testing::Values(TopologyFamily::kFullyConnected,
                          TopologyFamily::kStar, TopologyFamily::kRing,
                          TopologyFamily::kFatTree,
                          TopologyFamily::kRandomWan,
                          TopologyFamily::kRandomWanHetero,
                          TopologyFamily::kBus),
        ::testing::Values(1u, 2u, 3u),
        ::testing::Values(0.5, 5.0)),
    param_name);

}  // namespace
}  // namespace edgesched::sched
