// Policy-matrix fuzz suite: every engine-backed registry bundle plus
// novel policy combinations (never shipped as named algorithms) over a
// few hundred random instances. Each schedule must pass the independent
// validator, and a replay from the same seed — fresh instance, fresh
// scheduler — must reproduce the schedule byte for byte (canonical form,
// doubles as bit patterns).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/engine.hpp"
#include "sched/registry.hpp"
#include "sched/validator.hpp"
#include "schedule_canon.hpp"

namespace edgesched::sched {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topology;
};

// Everything about the instance — size, shape, CCR, topology family —
// is drawn from the one Rng(seed), so the seed alone replays it.
Instance make_instance(std::uint64_t seed) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = static_cast<std::size_t>(rng.uniform_int(10, 30));
  dag::TaskGraph graph = dag::random_layered(params, rng);
  const double ccrs[] = {0.5, 2.0, 5.0, 10.0};
  dag::rescale_to_ccr(graph, ccrs[rng.uniform_int(0, 3)]);

  net::SpeedConfig speeds;
  speeds.heterogeneous = (seed % 3 == 0);
  net::Topology topology = [&]() -> net::Topology {
    switch (rng.uniform_int(0, 4)) {
      case 0: return net::fully_connected(4, speeds, rng);
      case 1: return net::switched_star(5, speeds, rng);
      case 2: return net::ring(5, speeds, rng);
      case 3: return net::bus(4, speeds, rng);
      default: {
        net::RandomWanParams wan;
        wan.num_processors = 8;
        wan.speeds = speeds;
        return net::random_wan(wan, rng);
      }
    }
  }();
  return Instance{std::move(graph), std::move(topology)};
}

// Novel combinations: consistent per AlgorithmSpec::validate, but not
// any named algorithm's bundle. Each exercises a policy pairing the
// seed implementations never did.
std::vector<AlgorithmSpec> novel_specs() {
  std::vector<AlgorithmSpec> specs;

  // BA's loop with OIHSA's contention-probing router.
  AlgorithmSpec ba_probe;
  ba_probe.name = "BA-PROBE";
  ba_probe.selection = SelectionPolicyKind::kBlindEft;
  ba_probe.routing = RoutingPolicyKind::kProbeDijkstra;
  specs.push_back(ba_probe);

  // Tentative (schedule-and-roll-back) EFT with cost-ordered edges.
  AlgorithmSpec tent_cost;
  tent_cost.name = "TENT-COST";
  tent_cost.selection = SelectionPolicyKind::kTentativeEft;
  tent_cost.edge_order = EdgeOrderPolicyKind::kByCostDescending;
  specs.push_back(tent_cost);

  // OIHSA's selection and routing over store-and-forward packets.
  AlgorithmSpec mls_packet;
  mls_packet.name = "MLS-PACKET";
  mls_packet.selection = SelectionPolicyKind::kMlsEstimate;
  mls_packet.edge_order = EdgeOrderPolicyKind::kByCostDescending;
  mls_packet.routing = RoutingPolicyKind::kProbeDijkstra;
  mls_packet.insertion = InsertionPolicyKind::kPacketized;
  mls_packet.packet_size = 100.0;
  specs.push_back(mls_packet);

  // Fluid bandwidth sharing with BA's BFS routes and eager shipping.
  AlgorithmSpec fluid_bfs;
  fluid_bfs.name = "FLUID-BFS";
  fluid_bfs.selection = SelectionPolicyKind::kMlsEstimate;
  fluid_bfs.insertion = InsertionPolicyKind::kFluidBandwidth;
  fluid_bfs.eager_communication = true;
  specs.push_back(fluid_bfs);

  return specs;
}

TEST(PolicyMatrix, FuzzValidatesAndReplaysByteIdentical) {
  std::vector<std::pair<std::string, AlgorithmSpec>> bundles;
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    if (entry.engine_backed()) {
      bundles.emplace_back(entry.key, entry.spec());
    }
  }
  ASSERT_GE(bundles.size(), 4u);
  for (const AlgorithmSpec& spec : novel_specs()) {
    bundles.emplace_back("novel:" + spec.name, spec);
  }
  ASSERT_GE(bundles.size(), 8u);

  constexpr std::uint64_t kInstances = 200;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    const Instance instance = make_instance(seed);
    for (const auto& [label, spec] : bundles) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " bundle=" + label);
      const SpecScheduler scheduler(spec);
      const Schedule s =
          scheduler.schedule(instance.graph, instance.topology);
      const auto violations =
          validate(instance.graph, instance.topology, s);
      ASSERT_TRUE(violations.empty())
          << (violations.empty() ? "" : violations.front());
      const std::string bytes =
          test::canonical_schedule(instance.graph, s);

      // Deterministic replay: same seed, fresh instance and scheduler.
      const Instance again = make_instance(seed);
      const std::string replay = test::canonical_schedule(
          again.graph, SpecScheduler(spec).schedule(again.graph,
                                                    again.topology));
      ASSERT_EQ(bytes, replay);
    }
  }
}

// Distinct specs — even same-named ones — must fingerprint apart, and a
// spec must fingerprint identically across processes (the service cache
// persists keys only per process, but stability is what makes hits
// meaningful across graph/topology reloads).
TEST(PolicyMatrix, FingerprintsAreDistinct) {
  std::vector<std::uint64_t> prints;
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    if (entry.engine_backed()) {
      prints.push_back(entry.spec().fingerprint());
    }
  }
  for (const AlgorithmSpec& spec : novel_specs()) {
    prints.push_back(spec.fingerprint());
  }
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]) << i << " vs " << j;
    }
  }
}

}  // namespace
}  // namespace edgesched::sched
