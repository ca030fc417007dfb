// Ablation: the cost of ignoring contention. A classic contention-free
// schedule is replayed on the real network (same assignments, real routes
// and link queues) and compared with the contention-aware algorithms.
#include <iomanip>
#include <iostream>

#include "sched/assignment.hpp"
#include "sched/classic.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "sim/runner.hpp"
#include "sim/stats.hpp"
#include "sim/workload.hpp"
#include "util/env.hpp"

#include "telemetry.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using namespace edgesched;

  sim::ExperimentConfig config = sim::ExperimentConfig::defaults(false);
  config.ccr_values = {0.5, 2.0, 5.0, 10.0};
  config.processor_counts = {8, 16, 32};
  const bool validate = env_flag("EDGESCHED_VALIDATE", false);

  std::cout << "== ablation: contention awareness ==\n";
  std::cout << "CLASSIC plans on the idealised model; 'replayed' is that "
               "plan executed on the real network.\n\n";

  sim::RunningStats classic_planned;
  sim::RunningStats classic_replayed;
  sim::RunningStats ba;
  sim::RunningStats oihsa;
  sim::RunningStats bbsa;
  sim::RunningStats underestimate_pct;  // planned vs replayed gap
  sim::RunningStats oihsa_vs_replay;

  Rng root(config.seed);
  for (double ccr : config.ccr_values) {
    for (std::size_t procs : config.processor_counts) {
      for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
        Rng rng = root.fork();
        const sim::Instance inst =
            sim::make_instance(config, procs, ccr, rng);

        const sched::Schedule planned =
            sched::ClassicScheduler{}.schedule(inst.graph, inst.topology);
        const sched::Schedule replayed =
            sched::replay_under_contention(inst.graph, inst.topology,
                                           planned);
        const auto run = [&inst](const sched::AlgorithmSpec& spec) {
          return sched::SpecScheduler(spec).schedule(inst.graph,
                                                     inst.topology);
        };
        const sched::Schedule s_ba = run(sched::ba_spec());
        const sched::Schedule s_oihsa = run(sched::oihsa_spec());
        const sched::Schedule s_bbsa = run(sched::bbsa_spec());
        if (validate) {
          sched::validate_or_throw(inst.graph, inst.topology, replayed);
          sched::validate_or_throw(inst.graph, inst.topology, s_ba);
          sched::validate_or_throw(inst.graph, inst.topology, s_oihsa);
          sched::validate_or_throw(inst.graph, inst.topology, s_bbsa);
        }

        classic_planned.add(planned.makespan());
        classic_replayed.add(replayed.makespan());
        ba.add(s_ba.makespan());
        oihsa.add(s_oihsa.makespan());
        bbsa.add(s_bbsa.makespan());
        underestimate_pct.add(sim::improvement_pct(replayed.makespan(),
                                                   planned.makespan()));
        oihsa_vs_replay.add(sim::improvement_pct(replayed.makespan(),
                                                 s_oihsa.makespan()));
      }
    }
  }

  const auto row = [](const std::string& label,
                      const sim::RunningStats& s) {
    std::cout << std::setw(28) << label << " | " << std::setw(14)
              << std::fixed << std::setprecision(1) << s.mean() << "\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setprecision(6);
  };
  std::cout << std::setw(28) << "schedule" << " | " << std::setw(14)
            << "mean makespan" << "\n";
  std::cout << std::string(28, '-') << "-+-" << std::string(14, '-')
            << "\n";
  row("CLASSIC (planned, ideal)", classic_planned);
  row("CLASSIC replayed (real)", classic_replayed);
  row("BA", ba);
  row("OIHSA", oihsa);
  row("BBSA", bbsa);
  std::cout << "\nclassic plan underestimates reality by "
            << std::fixed << std::setprecision(1)
            << -underestimate_pct.mean() << "% on average\n";
  std::cout << "OIHSA beats the replayed classic schedule by "
            << oihsa_vs_replay.mean() << "% on average\n";
  return 0;
}
