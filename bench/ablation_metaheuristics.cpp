// Ablation: metaheuristic search vs one-pass list scheduling under
// contention — how much makespan do OIHSA/BBSA leave on the table, and at
// what cost? GA and SA both search the task→processor assignment space
// with the contention-aware fixed-assignment evaluator as fitness.
// Instances are kept small: every fitness evaluation is a full schedule.
#include <chrono>
#include <iomanip>
#include <iostream>

#include "sched/annealing.hpp"
#include "sched/engine.hpp"
#include "sched/genetic.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "sim/workload.hpp"
#include "util/env.hpp"

#include "telemetry.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using namespace edgesched;
  using Clock = std::chrono::steady_clock;

  sim::ExperimentConfig config = sim::ExperimentConfig::defaults(false);
  config.tasks_min = 20;
  config.tasks_max = 60;
  config.repetitions =
      static_cast<std::size_t>(env_int("EDGESCHED_REPS", 3));

  std::cout << "== ablation: list scheduling vs metaheuristic search ==\n";
  std::cout << "small instances (tasks U(20,60), procs {4, 8}, "
               "ccr {1, 5}), improvements vs BA\n\n";

  struct Entry {
    std::string label;
    std::unique_ptr<sched::Scheduler> scheduler;
    sim::RunningStats improvement;
    double total_ms = 0.0;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"OIHSA", std::make_unique<sched::SpecScheduler>(sched::oihsa_spec()),
       {}, 0.0});
  entries.push_back(
      {"BBSA", std::make_unique<sched::SpecScheduler>(sched::bbsa_spec()),
       {}, 0.0});
  entries.push_back(
      {"GA", std::make_unique<sched::GeneticScheduler>(), {}, 0.0});
  entries.push_back(
      {"SA", std::make_unique<sched::AnnealingScheduler>(), {}, 0.0});

  std::size_t instances = 0;
  Rng root(config.seed);
  for (double ccr : {1.0, 5.0}) {
    for (std::size_t procs : {4, 8}) {
      for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        Rng rng = root.fork();
        const sim::Instance inst =
            sim::make_instance(config, procs, ccr, rng);
        const double ba = sched::SpecScheduler(sched::ba_spec())
                              .schedule(inst.graph, inst.topology)
                              .makespan();
        for (Entry& entry : entries) {
          const auto begin = Clock::now();
          const double makespan =
              entry.scheduler->schedule(inst.graph, inst.topology)
                  .makespan();
          entry.total_ms += std::chrono::duration<double, std::milli>(
                                Clock::now() - begin)
                                .count();
          entry.improvement.add(sim::improvement_pct(ba, makespan));
        }
        ++instances;
      }
    }
  }

  std::cout << std::setw(8) << "variant" << " | " << std::setw(20)
            << "vs BA [%]" << " | " << std::setw(16) << "ms/schedule"
            << "\n";
  std::cout << std::string(8, '-') << "-+-" << std::string(20, '-')
            << "-+-" << std::string(16, '-') << "\n";
  for (const Entry& entry : entries) {
    std::cout << std::setw(8) << entry.label << " | " << std::setw(12)
              << std::fixed << std::setprecision(2)
              << entry.improvement.mean() << " ± "
              << entry.improvement.ci95_halfwidth() << " | "
              << std::setw(16)
              << entry.total_ms / static_cast<double>(instances) << "\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setprecision(6);
  }
  return 0;
}
