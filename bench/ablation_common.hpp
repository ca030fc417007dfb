// Shared driver for the ablation benches: run a list of scheduler
// variants over a common instance set and report mean makespans plus the
// improvement of each variant over the first (the baseline).
#pragma once

#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "sched/engine.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "sim/workload.hpp"
#include "telemetry.hpp"
#include "util/env.hpp"

namespace edgesched::bench {

struct Variant {
  std::string label;
  std::unique_ptr<sched::Scheduler> scheduler;
};

/// A variant that runs `spec` (typically an edited preset) on the engine.
inline Variant spec_variant(std::string label, sched::AlgorithmSpec spec) {
  return Variant{std::move(label),
                 std::make_unique<sched::SpecScheduler>(std::move(spec))};
}

/// When `report` is given, the per-variant means are appended under
/// "ablations" -> title (one binary may run several ablations).
inline void run_ablation(const std::string& title,
                         std::vector<Variant> variants,
                         bool heterogeneous = false,
                         obs::BenchReport* report = nullptr) {
  sim::ExperimentConfig config =
      sim::ExperimentConfig::defaults(heterogeneous);
  // Ablations need fewer axis points than the figure sweeps.
  config.ccr_values = {0.5, 2.0, 5.0, 10.0};
  config.processor_counts = {8, 16, 32};
  const bool validate = env_flag("EDGESCHED_VALIDATE", false);

  std::cout << "== ablation: " << title << " ==\n";
  std::cout << "ccr {0.5, 2, 5, 10} x procs {8, 16, 32} x "
            << config.repetitions << " reps, tasks U(" << config.tasks_min
            << ", " << config.tasks_max << ")\n\n";

  std::vector<sim::RunningStats> makespans(variants.size());
  std::vector<sim::RunningStats> improvements(variants.size());
  Rng root(config.seed);
  for (double ccr : config.ccr_values) {
    for (std::size_t procs : config.processor_counts) {
      for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        Rng rng = root.fork();
        const sim::Instance instance =
            sim::make_instance(config, procs, ccr, rng);
        double baseline = 0.0;
        for (std::size_t v = 0; v < variants.size(); ++v) {
          const sched::Schedule s = variants[v].scheduler->schedule(
              instance.graph, instance.topology);
          if (validate) {
            sched::validate_or_throw(instance.graph, instance.topology, s);
          }
          const double makespan = s.makespan();
          makespans[v].add(makespan);
          if (v == 0) {
            baseline = makespan;
          }
          improvements[v].add(sim::improvement_pct(baseline, makespan));
        }
      }
    }
  }

  std::cout << std::setw(28) << "variant" << " | " << std::setw(14)
            << "mean makespan" << " | " << std::setw(20)
            << "vs baseline [%]" << "\n";
  std::cout << std::string(28, '-') << "-+-" << std::string(14, '-')
            << "-+-" << std::string(20, '-') << "\n";
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::cout << std::setw(28) << variants[v].label << " | "
              << std::setw(14) << std::fixed << std::setprecision(1)
              << makespans[v].mean() << " | " << std::setw(12)
              << std::setprecision(2) << improvements[v].mean() << " ± "
              << improvements[v].ci95_halfwidth() << "\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setprecision(6);
  }
  std::cout << "\n";

  if (report != nullptr) {
    obs::JsonValue series = obs::JsonValue::array();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      obs::JsonValue entry = obs::JsonValue::object();
      entry.set("label", obs::JsonValue(variants[v].label));
      entry.set("mean_makespan", obs::JsonValue(makespans[v].mean()));
      entry.set("improvement_pct_mean",
                obs::JsonValue(improvements[v].mean()));
      series.push(std::move(entry));
    }
    if (!report->root().contains("ablations")) {
      report->root().set("ablations", obs::JsonValue::object());
    }
    // set() replaces the whole member, so rebuild the object.
    obs::JsonValue ablations = report->root().at("ablations");
    ablations.set(title, std::move(series));
    report->root().set("ablations", std::move(ablations));
  }
}

}  // namespace edgesched::bench
