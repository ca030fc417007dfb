// Dense linear algebra on a dragonfly machine: schedule a tiled Cholesky
// factorisation and study how the contention-aware algorithms track the
// critical path as the tile count grows.
//
//   $ ./build/examples/cholesky_cluster [max_tiles]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/validator.hpp"

int main(int argc, char** argv) {
  using namespace edgesched;

  const std::size_t max_tiles =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;

  Rng rng(11);
  const net::Topology machine =
      net::dragonfly(2, 2, 2, net::SpeedConfig{}, rng);
  std::cout << "machine: dragonfly with " << machine.num_processors()
            << " processors\n\n";
  std::cout << std::setw(7) << "tiles" << std::setw(8) << "tasks"
            << std::setw(12) << "bound" << std::setw(12) << "BA"
            << std::setw(12) << "OIHSA" << std::setw(12) << "BBSA"
            << std::setw(10) << "SLR" << "\n";

  for (std::size_t tiles = 2; tiles <= max_tiles; tiles += 2) {
    // Communication-heavy tiles: moving a tile costs as much as a TRSM.
    const dag::TaskGraph graph = dag::cholesky(tiles, 3.0, 3.0);
    const double bound = sched::makespan_lower_bound(graph, machine);

    const sched::Schedule ba =
        sched::SpecScheduler(sched::ba_spec()).schedule(graph, machine);
    const sched::Schedule oihsa =
        sched::SpecScheduler(sched::oihsa_spec()).schedule(graph, machine);
    const sched::Schedule bbsa =
        sched::SpecScheduler(sched::bbsa_spec()).schedule(graph, machine);
    sched::validate_or_throw(graph, machine, ba);
    sched::validate_or_throw(graph, machine, oihsa);
    sched::validate_or_throw(graph, machine, bbsa);

    std::cout << std::setw(7) << tiles << std::setw(8)
              << graph.num_tasks() << std::fixed << std::setprecision(1)
              << std::setw(12) << bound << std::setw(12) << ba.makespan()
              << std::setw(12) << oihsa.makespan() << std::setw(12)
              << bbsa.makespan() << std::setw(10) << std::setprecision(2)
              << oihsa.makespan() / bound << "\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setprecision(6);
  }
  return 0;
}
