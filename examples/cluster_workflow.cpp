// Heterogeneous cluster workflow: schedule the dependence structure of
// Gaussian elimination on a fat-tree cluster with mixed-speed nodes, and
// compare all three contention-aware algorithms plus the classic
// contention-free baseline replayed under real contention.
//
//   $ ./build/examples/cluster_workflow [matrix_dim] [leaf_switches]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/assignment.hpp"
#include "sched/classic.hpp"
#include "sched/engine.hpp"
#include "sched/metrics.hpp"
#include "sched/validator.hpp"

int main(int argc, char** argv) {
  using namespace edgesched;

  const std::size_t dim =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 8;
  const std::size_t leaves =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 3;

  // Workflow: Gaussian elimination of a dim x dim matrix; pivot rows are
  // broadcast to the trailing submatrix, so communication grows with dim.
  dag::TaskGraph graph = dag::gaussian_elimination(dim, 8.0, 12.0);
  std::cout << "workflow: " << graph.name() << " with "
            << graph.num_tasks() << " tasks, " << graph.num_edges()
            << " edges, CCR "
            << dag::communication_computation_ratio(graph) << "\n";

  // Machine: a two-level fat-tree, 4 heterogeneous processors per leaf.
  Rng rng(7);
  net::SpeedConfig speeds;
  speeds.heterogeneous = true;
  const net::Topology cluster = net::fat_tree(leaves, 4, speeds, rng);
  std::cout << "cluster: " << cluster.num_processors()
            << " processors behind " << leaves
            << " leaf switches (speeds U(1,10))\n\n";

  const auto report = [&](const std::string& label,
                          const sched::Schedule& s) {
    sched::validate_or_throw(graph, cluster, s,
                             sched::ValidationOptions{});
    std::cout << std::setw(24) << label << "  makespan "
              << std::setw(9) << std::fixed << std::setprecision(2)
              << s.makespan() << "  utilisation "
              << sched::compute_metrics(graph, cluster, s).processor_utilisation
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  };

  for (const sched::AlgorithmSpec& spec :
       {sched::ba_spec(), sched::oihsa_spec(), sched::bbsa_spec()}) {
    report(spec.name, sched::SpecScheduler(spec).schedule(graph, cluster));
  }

  const sched::Schedule planned =
      sched::ClassicScheduler{}.schedule(graph, cluster);
  std::cout << std::setw(24) << "CLASSIC (ideal plan)" << "  makespan "
            << std::setw(9) << std::fixed << std::setprecision(2)
            << planned.makespan() << "  (assumes a contention-free net)\n";
  std::cout.unsetf(std::ios::fixed);
  report("CLASSIC replayed",
         sched::replay_under_contention(graph, cluster, planned));
  return 0;
}
