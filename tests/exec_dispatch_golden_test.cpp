// Executor byte identity: `ExecutionReport::to_json()` for a fuzzed matrix
// of cells must hash to the committed digests, which were captured from
// the scanning dispatch that visited every processor, domain and transfer
// op at each epoch. The matrix crosses every registry algorithm (so
// contention-free, exclusive, packetized and bandwidth ops all replay)
// with both dispatch modes, all three recovery policies and three fault
// scenarios: jitter only, scripted faults aimed at running work, and
// sampled hazards.
//
// Regenerate (only when the executor's semantics deliberately change):
//   EDGESCHED_UPDATE_GOLDENS=1 ./build/tests/exec_dispatch_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "exec/executor.hpp"
#include "fault_script.hpp"
#include "net/builders.hpp"
#include "sched/registry.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace edgesched::exec {
namespace {

#ifndef EDGESCHED_GOLDEN_DIR
#error "EDGESCHED_GOLDEN_DIR must point at tests/golden"
#endif

struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
};

// Small graphs on small fabrics (GA and SA run on every instance), with
// a torus, a bus and a fat tree so multi-hop routes, shared contention
// domains and switch relays all occur.
Instance fuzz_instance(std::uint64_t seed) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = 10 + static_cast<std::size_t>(rng.uniform_int(0, 14));
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 0.5 + rng.uniform_real(0.0, 3.0));
  const net::SpeedConfig speeds;
  net::Topology topo = [&] {
    switch (seed % 5) {
      case 0:
        return net::torus2d(3, 3, speeds, rng);
      case 1:
        return net::bus(4, speeds, rng);
      case 2:
        return net::fat_tree(2, 3, speeds, rng);
      case 3:
        return net::ring(5, speeds, rng);
      default: {
        net::RandomWanParams wan;
        wan.num_processors = 4;
        return net::random_wan(wan, rng);
      }
    }
  }();
  return Instance{std::move(graph), std::move(topo)};
}

/// Scripted faults that land on running work: each strikes a planned
/// task's processor or a planned transfer's link midway through its slot,
/// mostly transient, with one permanent fault per script.
FaultPlan scripted_faults(const Instance& inst,
                          const sched::Schedule& schedule, Rng& rng) {
  struct Busy {
    bool link = false;
    std::uint32_t target = 0;
    double start = 0.0;
    double finish = 0.0;
  };
  std::vector<Busy> busy;
  for (std::uint32_t t = 0; t < inst.graph.num_tasks(); ++t) {
    const sched::TaskPlacement& p = schedule.task(dag::TaskId(t));
    busy.push_back({false, p.processor.value(), p.start, p.finish});
  }
  for (std::uint32_t e = 0; e < inst.graph.num_edges(); ++e) {
    const sched::Communication comm =
        schedule.communication(dag::EdgeId(e));
    for (const sched::LinkOccupation& occ : comm.occupations) {
      busy.push_back({true, occ.link.value(), occ.start, occ.finish});
    }
    for (std::size_t h = 0; h < comm.profiles.size(); ++h) {
      busy.push_back({true, comm.route[h].value(),
                      comm.profiles[h].start_time(),
                      comm.profiles[h].finish_time()});
    }
  }
  std::vector<FaultEvent> events;
  const double span = schedule.makespan();
  for (int f = 0; f < 5; ++f) {
    const Busy& b = busy[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(busy.size()) - 1))];
    const double at = 0.5 * (b.start + b.finish);
    const bool permanent = f == 4;
    const double repair = permanent ? 0.0 : rng.uniform_real(0.01, 0.2) * span;
    events.push_back(
        b.link ? test::link_fault(at, net::LinkId(b.target), permanent, repair)
               : test::processor_fault(at, net::NodeId(b.target), permanent,
                                       repair));
  }
  return FaultPlan::scripted(std::move(events));
}

std::string digest_path() {
  return std::string(EDGESCHED_GOLDEN_DIR) + "/exec_dispatch.digests";
}

/// label -> hex digest of ExecutionReport::to_json().dump().
std::map<std::string, std::string> run_matrix() {
  std::map<std::string, std::string> cells;
  constexpr std::uint64_t kInstances = 10;
  const DispatchMode modes[] = {DispatchMode::kTimetable,
                                DispatchMode::kEventDriven};
  const RecoveryPolicy policies[] = {RecoveryPolicy::kFailStop,
                                     RecoveryPolicy::kRetry,
                                     RecoveryPolicy::kReschedule};
  for (std::uint64_t i = 0; i < kInstances; ++i) {
    const Instance inst = fuzz_instance(7100 + i);
    for (const auto& entry : sched::algorithm_registry()) {
      const sched::Schedule schedule =
          entry.make()->schedule(inst.graph, inst.topo);
      const double span = schedule.makespan();
      Rng rng(900 + i);
      const FaultPlan scripted = scripted_faults(inst, schedule, rng);
      HazardConfig hazard;
      hazard.processor_rate = 1.5 / span;
      hazard.link_rate = 0.5 / span;
      hazard.horizon = 3.0 * span;
      hazard.permanent_fraction = 0.3;
      hazard.mean_repair = 0.05 * span;
      hazard.seed = 31 + i;
      const std::pair<const char*, FaultPlan> scenarios[] = {
          {"jitter", FaultPlan{}},
          {"scripted", scripted},
          {"hazard", FaultPlan::sampled(inst.topo, hazard)}};
      for (const DispatchMode mode : modes) {
        for (const RecoveryPolicy policy : policies) {
          for (const auto& [scenario, faults] : scenarios) {
            ExecutionOptions options;
            options.model.duration_spread = 0.2;
            options.model.bandwidth_spread = 0.2;
            options.model.straggler_probability = 0.05;
            options.model.seed = 60 + i;
            options.faults = faults;
            options.policy = policy;
            options.dispatch = mode;
            options.retry_backoff = 0.02 * span;
            options.reschedule_delay = 0.01 * span;
            const ExecutionReport report =
                execute(inst.graph, inst.topo, schedule, options);
            Fingerprint fp;
            fp.mix(std::string_view(report.to_json().dump()));
            char hex[17];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(fp.value()));
            std::ostringstream label;
            label << "i" << i << "/" << entry.key << "/" << to_string(mode)
                  << "/" << to_string(policy) << "/" << scenario;
            cells.emplace(label.str(), hex);
          }
        }
      }
    }
  }
  return cells;
}

TEST(ExecDispatchGolden, ReportsByteIdenticalToScanningDispatch) {
  const std::map<std::string, std::string> actual = run_matrix();
  if (std::getenv("EDGESCHED_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(digest_path());
    ASSERT_TRUE(out) << "cannot write " << digest_path();
    for (const auto& [label, hex] : actual) {
      out << label << " " << hex << "\n";
    }
    return;
  }
  std::ifstream in(digest_path());
  ASSERT_TRUE(in) << "missing " << digest_path()
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
    EXPECT_EQ(digest, it->second) << cell << ": report bytes diverged";
  }
}

}  // namespace
}  // namespace edgesched::exec
