// Link contention report: schedule a communication-heavy workflow on a
// random WAN, then break the result down — schedule quality metrics,
// per-contention-domain load, and the circuit-vs-packet comparison.
//
//   $ ./build/examples/link_contention_report [processors] [ccr]
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <vector>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "net/properties.hpp"
#include "sched/engine.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/metrics.hpp"
#include "sched/validator.hpp"

int main(int argc, char** argv) {
  using namespace edgesched;

  const std::size_t procs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 12;
  const double ccr = argc > 2 ? std::atof(argv[2]) : 5.0;

  Rng rng(404);
  dag::LayeredDagParams params;
  params.num_tasks = 80;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, ccr);

  net::RandomWanParams wan;
  wan.num_processors = procs;
  const net::Topology grid = net::random_wan(wan, rng);
  const net::TopologyStats net_stats = net::analyze(grid);
  std::cout << "network: " << net_stats.num_processors
            << " processors, " << net_stats.num_switches
            << " switches, diameter " << net_stats.diameter
            << ", mean processor distance "
            << net_stats.mean_processor_distance << "\n";
  std::cout << "workload: " << graph.num_tasks() << " tasks, CCR " << ccr
            << ", makespan lower bound "
            << sched::makespan_lower_bound(graph, grid) << "\n\n";

  const auto report = [&](const sched::Scheduler& scheduler) {
    const sched::Schedule s = scheduler.schedule(graph, grid);
    sched::validate_or_throw(graph, grid, s);
    const sched::ScheduleMetrics m =
        sched::compute_metrics(graph, grid, s);
    std::cout << "--- " << scheduler.name() << " ---\n"
              << sched::to_string(m);

    // The three hottest contention domains.
    std::vector<double> busy = sched::domain_busy_times(graph, grid, s);
    std::vector<std::size_t> index(busy.size());
    for (std::size_t i = 0; i < index.size(); ++i) {
      index[i] = i;
    }
    std::sort(index.begin(), index.end(), [&](std::size_t a,
                                              std::size_t b) {
      return busy[a] > busy[b];
    });
    std::cout << "hottest domains:";
    for (std::size_t i = 0; i < std::min<std::size_t>(3, index.size());
         ++i) {
      std::cout << "  D" << index[i] << " busy " << std::fixed
                << std::setprecision(0) << busy[index[i]];
      std::cout.unsetf(std::ios::fixed);
    }
    std::cout << "\n\n";
  };

  report(sched::SpecScheduler(sched::ba_spec()));
  report(sched::SpecScheduler(sched::oihsa_spec()));
  report(sched::SpecScheduler(sched::bbsa_spec()));
  sched::AlgorithmSpec packets = sched::packet_ba_spec();
  packets.packet_size = 100.0;
  report(sched::SpecScheduler(packets));
  return 0;
}
