// Scheduling cost (algorithm runtime) comparison — §4.4 argues OIHSA's
// bounded slot adjustment "reduces the scheduling cost"; this bench
// measures wall-clock scheduling time per algorithm as instances grow.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "sched/classic.hpp"
#include "sched/engine.hpp"
#include "sim/workload.hpp"
#include "util/env.hpp"

#include "telemetry.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using namespace edgesched;
  using Clock = std::chrono::steady_clock;

  std::vector<std::pair<std::string, std::unique_ptr<sched::Scheduler>>>
      algorithms;
  algorithms.emplace_back("CLASSIC",
                          std::make_unique<sched::ClassicScheduler>());
  sched::AlgorithmSpec tentative = sched::ba_spec();
  tentative.selection = sched::SelectionPolicyKind::kTentativeEft;
  for (const auto& [label, spec] :
       {std::pair{"BA", sched::ba_spec()},
        std::pair{"BA-tentative", tentative},
        std::pair{"OIHSA", sched::oihsa_spec()},
        std::pair{"BBSA", sched::bbsa_spec()},
        std::pair{"PACKET-BA", sched::packet_ba_spec()}}) {
    algorithms.emplace_back(label,
                            std::make_unique<sched::SpecScheduler>(spec));
  }

  std::cout << "== scheduling cost: wall-clock per schedule ==\n\n";
  std::cout << std::setw(8) << "tasks" << std::setw(8) << "procs";
  for (const auto& [name, _] : algorithms) {
    std::cout << std::setw(14) << name;
  }
  std::cout << "   [ms per schedule]\n";

  sim::ExperimentConfig config = sim::ExperimentConfig::defaults(false);
  const int reps = static_cast<int>(env_int("EDGESCHED_REPS", 3));
  for (const auto& [tasks, procs] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {100, 8}, {100, 32}, {400, 16}, {400, 64}, {1000, 32}}) {
    config.tasks_min = tasks;
    config.tasks_max = tasks;
    std::cout << std::setw(8) << tasks << std::setw(8) << procs;
    for (const auto& [name, scheduler] : algorithms) {
      Rng root(99);
      double total_ms = 0.0;
      for (int rep = 0; rep < reps; ++rep) {
        Rng rng = root.fork();
        const sim::Instance inst =
            sim::make_instance(config, procs, 2.0, rng);
        const auto begin = Clock::now();
        const double makespan =
            scheduler->schedule(inst.graph, inst.topology).makespan();
        const auto end = Clock::now();
        (void)makespan;
        total_ms += std::chrono::duration<double, std::milli>(
                        end - begin)
                        .count();
      }
      std::cout << std::setw(14) << std::fixed << std::setprecision(2)
                << total_ms / reps;
      std::cout.unsetf(std::ios::fixed);
    }
    std::cout << "\n";
  }
  return 0;
}
