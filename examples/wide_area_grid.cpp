// Wide-area grid scenario: the paper's evaluation environment — a random
// multi-switch WAN whose switches host U(4,16) processors each — running
// a communication-heavy random workflow. Shows how the improvement of the
// contention-aware heuristics grows with CCR.
//
//   $ ./build/examples/wide_area_grid [processors] [tasks]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "sim/runner.hpp"

int main(int argc, char** argv) {
  using namespace edgesched;

  const std::size_t procs =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 16;
  const std::size_t tasks =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 60;

  Rng rng(2006);
  net::RandomWanParams wan;
  wan.num_processors = procs;
  const net::Topology grid = net::random_wan(wan, rng);
  std::size_t switches = grid.num_nodes() - grid.num_processors();
  std::cout << "grid: " << grid.num_processors() << " processors across "
            << switches << " switches, " << grid.num_links()
            << " directed links\n\n";

  std::cout << std::setw(6) << "CCR" << std::setw(12) << "BA"
            << std::setw(12) << "OIHSA" << std::setw(12) << "BBSA"
            << std::setw(14) << "OIHSA gain" << std::setw(14)
            << "BBSA gain" << "\n";

  for (double ccr : {0.5, 1.0, 2.0, 5.0, 10.0}) {
    Rng graph_rng(99);
    dag::LayeredDagParams params;
    params.num_tasks = tasks;
    dag::TaskGraph graph = dag::random_layered(params, graph_rng);
    dag::rescale_to_ccr(graph, ccr);

    const sched::Schedule ba =
        sched::SpecScheduler(sched::ba_spec()).schedule(graph, grid);
    const sched::Schedule oihsa =
        sched::SpecScheduler(sched::oihsa_spec()).schedule(graph, grid);
    const sched::Schedule bbsa =
        sched::SpecScheduler(sched::bbsa_spec()).schedule(graph, grid);
    sched::validate_or_throw(graph, grid, ba);
    sched::validate_or_throw(graph, grid, oihsa);
    sched::validate_or_throw(graph, grid, bbsa);

    std::cout << std::setw(6) << ccr << std::fixed << std::setprecision(0)
              << std::setw(12) << ba.makespan() << std::setw(12)
              << oihsa.makespan() << std::setw(12) << bbsa.makespan()
              << std::setprecision(1) << std::setw(13)
              << sim::improvement_pct(ba.makespan(), oihsa.makespan())
              << "%" << std::setw(13)
              << sim::improvement_pct(ba.makespan(), bbsa.makespan())
              << "%\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setprecision(6);
  }
  return 0;
}
