// Quickstart: build a small task graph and a switched cluster, schedule
// with OIHSA, and inspect the result.
//
//   $ ./build/examples/quickstart
#include <iostream>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/engine.hpp"
#include "sched/metrics.hpp"
#include "sched/validator.hpp"

int main() {
  using namespace edgesched;

  // 1. Describe the program: a tiny map/reduce — one producer fans out to
  //    three workers whose results join in a reducer. The builder checks
  //    each task and edge; build() proves the graph acyclic and freezes it.
  dag::TaskGraphBuilder builder("mapreduce");
  const dag::TaskId produce = builder.add_task(4.0, "produce");
  const dag::TaskId reduce = builder.add_task(3.0, "reduce");
  for (int i = 0; i < 3; ++i) {
    const dag::TaskId worker =
        builder.add_task(10.0, "work" + std::to_string(i));
    builder.add_edge(produce, worker, 6.0);  // shard shipped to the worker
    builder.add_edge(worker, reduce, 2.0);   // result shipped back
  }
  const dag::TaskGraph graph = builder.build();

  // 2. Describe the machine: four processors behind one switch. Links are
  //    explicit, so messages crossing the switch compete for them.
  net::Topology cluster("quad");
  const net::NodeId hub = cluster.add_switch("hub");
  for (int i = 0; i < 4; ++i) {
    const net::NodeId cpu =
        cluster.add_processor(1.0, "cpu" + std::to_string(i));
    cluster.add_duplex_link(cpu, hub, 1.0);
  }

  // 3. Schedule with OIHSA (contention-aware: routes and link time slots
  //    are booked for every cross-processor edge).
  const sched::Schedule schedule =
      sched::SpecScheduler(sched::oihsa_spec()).schedule(graph, cluster);

  // 4. Every schedule can be independently re-validated.
  sched::validate_or_throw(graph, cluster, schedule);

  std::cout << schedule.to_string(graph, cluster);
  std::cout << "makespan: " << schedule.makespan() << "\n";
  std::cout << "processor utilisation: "
            << sched::compute_metrics(graph, cluster, schedule)
                   .processor_utilisation << "\n";
  return 0;
}
