// Ablation: robustness of each scheduler's assignments to runtime
// duration noise. A static schedule optimised to the hilt for nominal
// costs can be brittle; this bench re-executes each algorithm's
// assignment under multiplicative task-weight noise and reports the mean
// and worst slowdown relative to its own nominal makespan.
#include <iomanip>
#include <iostream>
#include <memory>

#include "sched/scheduler.hpp"
#include "sim/perturbation.hpp"
#include "sim/workload.hpp"
#include "util/env.hpp"

#include "telemetry.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using namespace edgesched;

  sim::ExperimentConfig config = sim::ExperimentConfig::defaults(false);
  config.tasks_min = 40;
  config.tasks_max = 120;
  const int reps = static_cast<int>(env_int("EDGESCHED_REPS", 3));

  std::cout << "== ablation: schedule robustness under duration noise ==\n";
  std::cout << "procs 8, ccr 2, " << reps
            << " instances, 30 perturbation trials each\n\n";
  std::cout << std::setw(8) << "spread" << std::setw(10) << "algo"
            << std::setw(16) << "mean slowdown" << std::setw(16)
            << "worst slowdown" << "\n";

  for (double spread : {0.1, 0.3}) {
    const auto schedulers = sched::all_schedulers();
    for (const auto& scheduler : schedulers) {
      sim::RunningStats mean_slowdown;
      sim::RunningStats worst_slowdown;
      Rng root(config.seed);
      for (int rep = 0; rep < reps; ++rep) {
        Rng rng = root.fork();
        const sim::Instance inst =
            sim::make_instance(config, 8, 2.0, rng);
        const sched::Schedule s =
            scheduler->schedule(inst.graph, inst.topology);
        sim::PerturbationOptions options;
        options.spread = spread;
        const sim::RobustnessReport report =
            sim::assess_robustness(inst.graph, inst.topology, s,
                                   options);
        mean_slowdown.add(report.mean_slowdown);
        worst_slowdown.add(report.worst_slowdown);
      }
      std::cout << std::setw(8) << spread << std::setw(10)
                << scheduler->name() << std::setw(16) << std::fixed
                << std::setprecision(3) << mean_slowdown.mean()
                << std::setw(16) << worst_slowdown.mean() << "\n";
      std::cout.unsetf(std::ios::fixed);
      std::cout << std::setprecision(6);
    }
  }
  return 0;
}
