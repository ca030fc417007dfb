// Golden equivalence: the four paper algorithms, however they are
// implemented, must emit byte-identical schedules on a pinned fig1/fig3
// workload slice. The goldens under tests/golden/ were captured from the
// pre-engine (hand-rolled loop) implementations, and a variant added
// later from the build before its change; the spec-driven engine is
// required to reproduce them bit for bit.
//
// Regenerate (only when the *model semantics* deliberately change):
//   EDGESCHED_UPDATE_GOLDENS=1 ./build/tests/engine_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "net/routing.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "schedule_canon.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "sim/workload.hpp"
#include "util/hash.hpp"

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
/// every spec decision is pinned.
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
  AlgorithmSpec oihsa_eager = oihsa_spec();
  oihsa_eager.eager_communication = true;
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
          {"oihsa_eager", oihsa_eager},
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

// The golden directory and the variant list must agree: a golden whose
// variant was deleted would otherwise linger unread, and a variant
// without a file fails only under the byte test above.
TEST(EngineGolden, EveryGoldenFileHasAVariantAndViceVersa) {
  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(EDGESCHED_GOLDEN_DIR)) {
    if (entry.path().extension() == ".txt") {
      on_disk.insert(entry.path().stem().string());
    }
  }
  std::set<std::string> named;
  for (const Variant& variant : variants()) {
    named.insert(variant.label);
  }
  for (const std::string& file : on_disk) {
    EXPECT_TRUE(named.count(file) == 1)
        << "golden " << file << ".txt names no variant";
  }
  for (const std::string& label : named) {
    EXPECT_TRUE(on_disk.count(label) == 1)
        << "variant " << label << " has no golden file";
  }
}

/// Fabrics with more than one simple path between some processor pair,
/// where the §4.3 search (and BFS) still choose the route: the pinned
/// fig1/fig3 instances above are random WANs with one or two switches
/// and no extra cable, so without these no golden would exercise the
/// search itself.
struct Fabric {
  std::string label;
  net::Topology topology;
};

std::vector<Fabric> cyclic_fabrics() {
  Rng rng(4301);
  net::SpeedConfig homogeneous;
  net::SpeedConfig heterogeneous;
  heterogeneous.heterogeneous = true;
  net::RandomWanParams wan;
  wan.num_processors = 40;
  wan.fanout_min = 4;
  wan.fanout_max = 6;
  wan.extra_switch_link_probability = 0.5;
  wan.speeds = heterogeneous;
  std::vector<Fabric> fabrics;
  fabrics.push_back({"torus4x4", net::torus2d(4, 4, homogeneous, rng)});
  fabrics.push_back({"hypercube4", net::hypercube(4, heterogeneous, rng)});
  fabrics.push_back({"wan40", net::random_wan(wan, rng)});
  fabrics.push_back({"ring6", net::ring(6, heterogeneous, rng)});
  fabrics.push_back({"bus3", net::bus(3, homogeneous, rng)});
  return fabrics;
}

std::string cyclic_digest_path() {
  return std::string(EDGESCHED_GOLDEN_DIR) + "/cyclic_fabrics.digests";
}

/// fabric/graph/variant -> hex digest of the canonical schedule.
std::map<std::string, std::string> cyclic_cells() {
  std::map<std::string, std::string> cells;
  Rng rng(4302);
  for (const Fabric& fabric : cyclic_fabrics()) {
    for (const double ccr : {1.0, 5.0}) {
      dag::LayeredDagParams params;
      params.num_tasks = 40;
      dag::TaskGraph graph = dag::random_layered(params, rng);
      dag::rescale_to_ccr(graph, ccr);
      for (const Variant& variant : variants()) {
        const sched::Schedule schedule =
            sched::SpecScheduler(variant.spec).schedule(graph, fabric.topology);
        sched::validate_or_throw(graph, fabric.topology, schedule);
        Fingerprint fp;
        fp.mix(std::string_view(test::canonical_schedule(graph, schedule)));
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(fp.value()));
        std::ostringstream label;
        label << fabric.label << "/ccr" << ccr << "/" << variant.label;
        cells.emplace(label.str(), hex);
      }
    }
  }
  return cells;
}

// Every variant on the cyclic fabrics, hashed against digests captured
// from the build before routing on unique-path fabrics skipped the
// search.
TEST(EngineGolden, CyclicFabricsByteIdentical) {
  for (const Fabric& fabric : cyclic_fabrics()) {
    ASSERT_FALSE(net::UniquePathRouter(fabric.topology).applies())
        << fabric.label << " has unique paths, so it pins no search";
  }
  const std::map<std::string, std::string> actual = cyclic_cells();
  if (std::getenv("EDGESCHED_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(cyclic_digest_path());
    ASSERT_TRUE(out) << "cannot write " << cyclic_digest_path();
    for (const auto& [label, hex] : actual) {
      out << label << " " << hex << "\n";
    }
    return;
  }
  std::ifstream in(cyclic_digest_path());
  ASSERT_TRUE(in) << "missing " << cyclic_digest_path()
                  << " (run with EDGESCHED_UPDATE_GOLDENS=1)";
  std::map<std::string, std::string> expected;
  std::string label;
  std::string hex;
  while (in >> label >> hex) {
    expected.emplace(label, hex);
  }
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [cell, digest] : actual) {
    const auto it = expected.find(cell);
    ASSERT_TRUE(it != expected.end()) << "cell " << cell << " not pinned";
    EXPECT_EQ(digest, it->second) << cell << ": schedule diverged";
  }
}

// The decision log must explain the schedule it accompanies: every task
// decision names the processor the task ran on, local edges log no hops,
// and a remote edge logs exactly the (link, start, finish) hops the
// schedule records — from the occupations for exclusive and packetized
// edges, from the route and rate profiles for fluid ones. Under optimal
// insertion the log is written at commit time and later deferrals may
// move a slot, but only later: the hops name the final links in order
// and no logged start exceeds the final one.
TEST(EngineGolden, DecisionLogHopsMatchTheSchedule) {
  using sched::Communication;
  for (const Variant& variant : variants()) {
    const bool deferrable =
        variant.spec.insertion == sched::InsertionPolicyKind::kOptimal;
    for (const PinnedInstance& pinned : pinned_instances()) {
      SCOPED_TRACE(variant.label + " on " + pinned.label);
      const dag::TaskGraph& graph = pinned.instance.graph;
      std::ostringstream jsonl;
      obs::DecisionLog log(jsonl);
      const sched::Schedule schedule = [&] {
        obs::ScopedDecisionLog scoped(log);
        return sched::SpecScheduler(variant.spec)
            .schedule(graph, pinned.instance.topology);
      }();

      std::size_t tasks_logged = 0;
      std::size_t edges_logged = 0;
      std::istringstream lines(jsonl.str());
      std::string line;
      while (std::getline(lines, line)) {
        const obs::JsonValue doc = obs::JsonValue::parse(line);
        const std::string& type = doc.at("type").as_string();
        if (type == "task") {
          ++tasks_logged;
          const dag::TaskId task{
              static_cast<std::uint32_t>(doc.at("task").as_number())};
          EXPECT_EQ(doc.at("chosen_processor").as_number(),
                    static_cast<double>(schedule.task(task).processor.index()));
          continue;
        }
        if (type != "edge") {
          continue;
        }
        ++edges_logged;
        const dag::EdgeId e{
            static_cast<std::uint32_t>(doc.at("edge").as_number())};
        const Communication comm = schedule.communication(e);
        const obs::JsonValue& hops = doc.at("hops");
        if (comm.kind == Communication::Kind::kLocal) {
          EXPECT_TRUE(doc.at("local").as_bool());
          EXPECT_EQ(hops.size(), 0u);
          continue;
        }
        EXPECT_FALSE(doc.at("local").as_bool());
        // The schedule's own hops, in booking order.
        std::vector<obs::EdgeHop> expected;
        if (comm.kind == Communication::Kind::kBandwidth) {
          for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
            expected.push_back(obs::EdgeHop{
                static_cast<std::uint32_t>(comm.route[i].index()),
                comm.profiles[i].start_time(),
                comm.profiles[i].finish_time()});
          }
        } else {
          for (const sched::LinkOccupation& occ : comm.occupations) {
            expected.push_back(
                obs::EdgeHop{static_cast<std::uint32_t>(occ.link.index()),
                             occ.start, occ.finish});
          }
        }
        ASSERT_EQ(hops.size(), expected.size()) << "edge " << e.value();
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const obs::JsonValue& hop = hops.at(i);
          EXPECT_EQ(hop.at("link").as_number(),
                    static_cast<double>(expected[i].link));
          if (deferrable) {
            EXPECT_LE(hop.at("start").as_number(), expected[i].start);
          } else {
            EXPECT_EQ(hop.at("start").as_number(), expected[i].start);
            EXPECT_EQ(hop.at("finish").as_number(), expected[i].finish);
          }
        }
      }
      EXPECT_EQ(tasks_logged, graph.num_tasks());
      EXPECT_EQ(edges_logged, graph.num_edges());
    }
  }
}

}  // namespace
}  // namespace edgesched
