// Golden equivalence: the four paper algorithms, however they are
// implemented, must emit byte-identical schedules on a pinned fig1/fig3
// workload slice. The goldens under tests/golden/ were captured from the
// pre-engine (hand-rolled loop) implementations; the policy-bundle
// engine is required to reproduce them bit for bit.
//
// Regenerate (only when the *model semantics* deliberately change):
//   EDGESCHED_UPDATE_GOLDENS=1 ./build/tests/engine_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "schedule_canon.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "sim/workload.hpp"

namespace edgesched {
namespace {

#ifndef EDGESCHED_GOLDEN_DIR
#error "EDGESCHED_GOLDEN_DIR must point at tests/golden"
#endif

/// The pinned workload slice: small instances drawn exactly like the
/// fig1 (homogeneous) and fig3 (heterogeneous) sweeps, with the axis
/// values fixed in code so the goldens do not depend on environment
/// variables.
struct PinnedInstance {
  std::string label;
  sim::Instance instance;
};

std::vector<PinnedInstance> pinned_instances() {
  std::vector<PinnedInstance> result;
  const auto slice = [&result](bool heterogeneous, const char* fig,
                               std::initializer_list<
                                   std::pair<std::size_t, double>> axis) {
    sim::ExperimentConfig config;
    config.heterogeneous = heterogeneous;
    config.tasks_min = 30;
    config.tasks_max = 60;
    config.seed = 20060815;
    Rng root(config.seed);
    for (const auto& [procs, ccr] : axis) {
      Rng rng = root.fork();
      std::ostringstream label;
      label << fig << "_p" << procs << "_ccr" << ccr;
      result.push_back(PinnedInstance{
          label.str(), sim::make_instance(config, procs, ccr, rng)});
    }
  };
  slice(false, "fig1", {{8, 0.5}, {16, 2.0}, {8, 10.0}});
  slice(true, "fig3", {{8, 2.0}, {16, 5.0}});
  return result;
}

/// Algorithm variants under golden protection: the four presets plus
/// the edited presets the ablation benches run (tentative BA selection,
/// first-fit OIHSA, BFS routing, eager shipping, append placement) so
/// every policy seam is pinned.
struct Variant {
  std::string label;
  sched::AlgorithmSpec spec;
};

std::vector<Variant> variants() {
  using namespace sched;
  AlgorithmSpec tentative = ba_spec();
  tentative.selection = SelectionPolicyKind::kTentativeEft;
  AlgorithmSpec append_eager = ba_spec();
  append_eager.task_insertion = false;
  append_eager.eager_communication = true;
  AlgorithmSpec firstfit = oihsa_spec();
  firstfit.insertion = InsertionPolicyKind::kFirstFit;
  AlgorithmSpec oihsa_bfs = oihsa_spec();
  oihsa_bfs.routing = RoutingPolicyKind::kBfsMinimal;
  oihsa_bfs.edge_order = EdgeOrderPolicyKind::kPredecessorOrder;
  AlgorithmSpec aware = oihsa_spec();
  aware.insertion_aware_estimate = true;
  aware.eager_communication = true;
  AlgorithmSpec bbsa_bfs = bbsa_spec();
  bbsa_bfs.routing = RoutingPolicyKind::kBfsMinimal;
  AlgorithmSpec small_packets = packet_ba_spec();
  small_packets.packet_size = 100.0;
  return {{"ba", ba_spec()},
          {"ba_tentative", tentative},
          {"ba_append_eager", append_eager},
          {"oihsa", oihsa_spec()},
          {"oihsa_firstfit", firstfit},
          {"oihsa_bfs_predorder", oihsa_bfs},
          {"oihsa_aware_eager", aware},
          {"bbsa", bbsa_spec()},
          {"bbsa_bfs", bbsa_bfs},
          {"packet_ba", packet_ba_spec()},
          {"packet_ba_100", small_packets}};
}

std::string golden_path(const std::string& variant) {
  return std::string(EDGESCHED_GOLDEN_DIR) + "/" + variant + ".txt";
}

TEST(EngineGolden, ByteIdenticalToPreRefactorSchedules) {
  const bool update = std::getenv("EDGESCHED_UPDATE_GOLDENS") != nullptr;
  const std::vector<PinnedInstance> instances = pinned_instances();
  for (const Variant& variant : variants()) {
    std::ostringstream actual;
    for (const PinnedInstance& pinned : instances) {
      const sched::Schedule schedule =
          sched::SpecScheduler(variant.spec)
              .schedule(pinned.instance.graph, pinned.instance.topology);
      sched::validate_or_throw(pinned.instance.graph,
                               pinned.instance.topology, schedule);
      actual << "# " << pinned.label << "\n"
             << test::canonical_schedule(pinned.instance.graph, schedule);
    }
    const std::string path = golden_path(variant.label);
    if (update) {
      std::ofstream out(path);
      ASSERT_TRUE(out) << "cannot write " << path;
      out << actual.str();
      continue;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (run with EDGESCHED_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual.str(), expected.str())
        << variant.label
        << ": schedule diverged from the pre-refactor golden";
  }
}

}  // namespace
}  // namespace edgesched
