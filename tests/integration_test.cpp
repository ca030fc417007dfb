// Cross-module integration: every algorithm on shared scenarios, checked
// against the independent validator and against hand-derived makespans.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "dag/serialization.hpp"
#include "net/builders.hpp"
#include "net/serialization.hpp"
#include "sched/classic.hpp"
#include "sched/engine.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

std::vector<std::unique_ptr<Scheduler>> contention_schedulers() {
  return all_schedulers();
}

TEST(Integration, AllSchedulersListedOnce) {
  const auto schedulers = all_schedulers();
  ASSERT_EQ(schedulers.size(), 3u);
  EXPECT_EQ(schedulers[0]->name(), "BA");
  EXPECT_EQ(schedulers[1]->name(), "OIHSA");
  EXPECT_EQ(schedulers[2]->name(), "BBSA");
}

TEST(Integration, SingleProcessorAllAlgorithmsAgree) {
  // With one processor every communication is local: each algorithm must
  // produce exactly total_work and an identical execution order.
  Rng rng(1);
  const net::Topology topo = net::switched_star(1, net::SpeedConfig{}, rng);
  dag::LayeredDagParams params;
  params.num_tasks = 20;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  const double total = graph.total_computation();
  for (const auto& scheduler : contention_schedulers()) {
    const Schedule s = scheduler->schedule(graph, topo);
    validate_or_throw(graph, topo, s);
    EXPECT_DOUBLE_EQ(s.makespan(), total) << scheduler->name();
  }
  const Schedule classic = ClassicScheduler{}.schedule(graph, topo);
  EXPECT_DOUBLE_EQ(classic.makespan(), total);
}

TEST(Integration, EveryAlgorithmRejectsAOneWayFabric) {
  // m has only an in-link. Before the reachability check looked along
  // in-links too, the engine presets threw routing errors here and
  // CLASSIC returned a schedule.
  net::Topology topo;
  const net::NodeId a = topo.add_processor(1.0, "a");
  const net::NodeId m = topo.add_processor(1.0, "m");
  const net::NodeId z = topo.add_processor(1.0, "z");
  topo.add_duplex_link(a, z);
  (void)topo.add_link(a, m);
  const dag::TaskGraph graph = dag::fork_join(4, 1.0, 1.0);
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    try {
      (void)entry.make()->schedule(graph, topo);
      ADD_FAILURE() << entry.key << " scheduled on a one-way fabric";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(),
                   "Scheduler: processors are not mutually reachable")
          << entry.key;
    }
  }
}

TEST(Integration, EveryAlgorithmSchedulesAPartialBus) {
  // Three links of one bus domain, as a topology file or the executor's
  // surviving fabric may hold: every route between non-neighbours
  // crosses the domain twice. OIHSA used to assert on its own
  // incomplete record there.
  net::Topology topo;
  const net::NodeId a = topo.add_processor();
  const net::NodeId b = topo.add_processor();
  const net::NodeId c = topo.add_processor();
  const net::DomainId bus = topo.add_domain();
  topo.add_link(a, b, 2.0, bus);
  topo.add_link(b, c, 2.0, bus);
  topo.add_link(c, a, 2.0, bus);
  const dag::TaskGraph graph = dag::fork_join(6, 2.0, 3.0);
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    const Schedule schedule = entry.make()->schedule(graph, topo);
    EXPECT_NO_THROW(validate_or_throw(graph, topo, schedule)) << entry.key;
  }
}

TEST(Integration, ZeroCommunicationGraphNeedsNoNetwork) {
  // Independent tasks: the network never matters; makespan approaches the
  // balanced partition bound.
  dag::TaskGraphBuilder builder;
  for (int i = 0; i < 8; ++i) {
    (void)builder.add_task(3.0);
  }
  const dag::TaskGraph graph = builder.build();
  Rng rng(2);
  const net::Topology topo =
      net::switched_star(4, net::SpeedConfig{}, rng);
  for (const auto& scheduler : contention_schedulers()) {
    const Schedule s = scheduler->schedule(graph, topo);
    validate_or_throw(graph, topo, s);
    EXPECT_DOUBLE_EQ(s.makespan(), 6.0) << scheduler->name();
  }
}

TEST(Integration, ChainStaysOnOneProcessorEverywhere) {
  const dag::TaskGraph graph = dag::chain(6, 2.0, 10.0);
  Rng rng(3);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  for (const auto& scheduler : contention_schedulers()) {
    const Schedule s = scheduler->schedule(graph, topo);
    validate_or_throw(graph, topo, s);
    EXPECT_DOUBLE_EQ(s.makespan(), 12.0) << scheduler->name();
  }
}

TEST(Integration, MakespanNeverBelowComputationBounds) {
  Rng rng(7);
  dag::LayeredDagParams params;
  params.num_tasks = 40;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 1.0);
  const net::Topology topo =
      net::switched_star(4, net::SpeedConfig{}, rng);
  const auto bl = dag::bottom_levels_computation_only(graph);
  const double cp_bound = *std::max_element(bl.begin(), bl.end());
  const double work_bound = graph.total_computation() / 4.0;
  for (const auto& scheduler : contention_schedulers()) {
    const Schedule s = scheduler->schedule(graph, topo);
    EXPECT_GE(s.makespan(), cp_bound - 1e-6) << scheduler->name();
    EXPECT_GE(s.makespan(), work_bound - 1e-6) << scheduler->name();
  }
}

TEST(Integration, SerialisedInstanceSchedulesIdentically) {
  // Round-trip graph and topology through the text formats, then verify
  // every scheduler produces the same makespan on both copies.
  Rng rng(9);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  const dag::TaskGraph graph = dag::random_layered(params, rng);
  net::RandomWanParams wan;
  wan.num_processors = 5;
  const net::Topology topo = net::random_wan(wan, rng);

  std::stringstream graph_text;
  std::stringstream topo_text;
  dag::write_text(graph_text, graph);
  net::write_text(topo_text, topo);
  const dag::TaskGraph graph2 = dag::read_text(graph_text);
  const net::Topology topo2 = net::read_text(topo_text);
  for (const auto& scheduler : contention_schedulers()) {
    const double m1 = scheduler->schedule(graph, topo).makespan();
    const double m2 = scheduler->schedule(graph2, topo2).makespan();
    EXPECT_DOUBLE_EQ(m1, m2) << scheduler->name();
  }
}

TEST(Integration, CanonicalWorkloadsAcrossTopologies) {
  Rng rng(11);
  const net::SpeedConfig speeds;
  std::vector<net::Topology> topologies;
  topologies.push_back(net::fully_connected(4, speeds, rng));
  topologies.push_back(net::switched_star(4, speeds, rng));
  topologies.push_back(net::ring(4, speeds, rng));
  topologies.push_back(net::mesh2d(2, 2, speeds, rng));
  topologies.push_back(net::hypercube(2, speeds, rng));
  topologies.push_back(net::fat_tree(2, 2, speeds, rng));
  topologies.push_back(net::bus(4, speeds, rng));

  std::vector<dag::TaskGraph> graphs;
  graphs.push_back(dag::fork_join(5, 2.0, 3.0));
  graphs.push_back(dag::fft(4, 1.0, 2.0));
  graphs.push_back(dag::gaussian_elimination(4, 2.0, 1.0));
  graphs.push_back(dag::stencil_1d(3, 4, 1.0, 1.0));

  for (const auto& topo : topologies) {
    for (const auto& graph : graphs) {
      for (const auto& scheduler : contention_schedulers()) {
        const Schedule s = scheduler->schedule(graph, topo);
        validate_or_throw(graph, topo, s);
        EXPECT_GT(s.makespan(), 0.0)
            << scheduler->name() << " on " << topo.name();
      }
    }
  }
}

TEST(Integration, StgWorkflowSchedulesEndToEnd) {
  // Regression: STG graphs have zero-weight dummy entry/exit tasks that
  // once broke processor-timeline insertion ordering.
  std::istringstream stg(
      "4\n"
      "0 0 0\n"
      "1 10 1 0\n"
      "2 6 1 0\n"
      "3 12 2 1 2\n"
      "4 5 1 3\n"
      "5 0 1 4\n");
  const dag::TaskGraph graph = dag::read_stg(stg, 3.0);
  Rng rng(17);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  for (const auto& scheduler : contention_schedulers()) {
    const Schedule s = scheduler->schedule(graph, topo);
    validate_or_throw(graph, topo, s);
  }
}

TEST(Integration, HeterogeneousInstanceEndToEnd) {
  Rng rng(13);
  dag::LayeredDagParams params;
  params.num_tasks = 30;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 2.0);
  net::RandomWanParams wan;
  wan.num_processors = 8;
  wan.speeds.heterogeneous = true;
  const net::Topology topo = net::random_wan(wan, rng);
  for (const auto& scheduler : contention_schedulers()) {
    const Schedule s = scheduler->schedule(graph, topo);
    validate_or_throw(graph, topo, s);
  }
}

}  // namespace
}  // namespace edgesched::sched
