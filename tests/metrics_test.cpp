#include "sched/metrics.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"
#include "sched/lower_bounds.hpp"
#include "sched/validator.hpp"

namespace edgesched::sched {
namespace {

TEST(LowerBounds, HandComputed) {
  // Chain of 3 tasks, weight 4 each, on 2 processors of speeds 1 and 2.
  const dag::TaskGraph graph = dag::chain(3, 4.0, 1.0);
  net::Topology topo;
  const net::NodeId slow = topo.add_processor(1.0);
  const net::NodeId fast = topo.add_processor(2.0);
  topo.add_duplex_link(slow, fast, 1.0);

  EXPECT_DOUBLE_EQ(critical_path_bound(graph, topo), 12.0 / 2.0);
  EXPECT_DOUBLE_EQ(work_bound(graph, topo), 12.0 / 3.0);
  EXPECT_DOUBLE_EQ(max_task_bound(graph, topo), 4.0 / 2.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(graph, topo), 6.0);
}

TEST(LowerBounds, WorkBoundDominatesForWideGraphs) {
  dag::TaskGraphBuilder builder;
  for (int i = 0; i < 16; ++i) {
    (void)builder.add_task(1.0);
  }
  const dag::TaskGraph graph = builder.build();
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(2, net::SpeedConfig{}, rng);
  EXPECT_DOUBLE_EQ(critical_path_bound(graph, topo), 1.0);
  EXPECT_DOUBLE_EQ(work_bound(graph, topo), 8.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(graph, topo), 8.0);
}

TEST(LowerBounds, EmptyGraph) {
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(2, net::SpeedConfig{}, rng);
  EXPECT_DOUBLE_EQ(critical_path_bound(dag::TaskGraph{}, topo), 0.0);
}

TEST(LowerBounds, EverySchedulerRespectsThem) {
  for (std::uint64_t seed : {2u, 3u}) {
    Rng rng(seed);
    dag::LayeredDagParams params;
    params.num_tasks = 30;
    dag::TaskGraph graph = dag::random_layered(params, rng);
    dag::rescale_to_ccr(graph, 2.0);
    net::RandomWanParams wan;
    wan.num_processors = 6;
    wan.speeds.heterogeneous = true;
    const net::Topology topo = net::random_wan(wan, rng);
    const double bound = makespan_lower_bound(graph, topo);
    for (const auto& scheduler : all_schedulers()) {
      EXPECT_GE(scheduler->schedule(graph, topo).makespan(),
                bound - 1e-6)
          << scheduler->name();
    }
  }
}

TEST(Metrics, HandComputedTwoTaskSchedule) {
  // a -> b, both on one processor of a 2-proc star: no communication.
  const dag::TaskGraph graph = dag::chain(2, 3.0, 10.0);
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(2, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  const ScheduleMetrics m = compute_metrics(graph, topo, s);
  EXPECT_DOUBLE_EQ(m.makespan, 6.0);
  EXPECT_DOUBLE_EQ(m.slr, 1.0);           // equals the chain bound
  EXPECT_DOUBLE_EQ(m.speedup, 1.0);       // serial work = 6
  EXPECT_DOUBLE_EQ(m.efficiency, 0.5);    // 2 processors
  EXPECT_DOUBLE_EQ(m.processor_utilisation, 0.5);
  EXPECT_EQ(m.local_edges, 1u);
  EXPECT_EQ(m.remote_edges, 0u);
  EXPECT_DOUBLE_EQ(m.network_busy_time, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_route_length, 0.0);
}

TEST(Metrics, CountsRemoteEdgesAndDelay) {
  const dag::TaskGraph graph = dag::fork(2, 20.0, 6.0);
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  validate_or_throw(graph, topo, s);
  const ScheduleMetrics m = compute_metrics(graph, topo, s);
  EXPECT_EQ(m.local_edges + m.remote_edges, graph.num_edges());
  if (m.remote_edges > 0) {
    EXPECT_DOUBLE_EQ(m.mean_route_length, 2.0);  // proc-switch-proc
    EXPECT_GT(m.mean_communication_delay, 0.0);
    EXPECT_GT(m.network_busy_time, 0.0);
    EXPECT_GT(m.link_utilisation, 0.0);
  }
}

TEST(Metrics, DomainBusyMatchesOccupations) {
  const dag::TaskGraph graph = dag::fork(2, 20.0, 6.0);
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(3, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  const std::vector<double> busy = domain_busy_times(graph, topo, s);
  ASSERT_EQ(busy.size(), topo.num_domains());
  double total = 0.0;
  for (double b : busy) {
    total += b;
  }
  const ScheduleMetrics m = compute_metrics(graph, topo, s);
  EXPECT_DOUBLE_EQ(total, m.network_busy_time);
}

TEST(Metrics, BandwidthSchedulesWeightBusyByRate) {
  Rng rng(9);
  dag::LayeredDagParams params;
  params.num_tasks = 20;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 3.0);
  net::RandomWanParams wan;
  wan.num_processors = 4;
  const net::Topology topo = net::random_wan(wan, rng);
  const Schedule s = SpecScheduler(bbsa_spec()).schedule(graph, topo);
  const ScheduleMetrics m = compute_metrics(graph, topo, s);
  // Busy time must equal sum of volume/capacity over all hops.
  double expected = 0.0;
  for (dag::EdgeId e : graph.all_edges()) {
    const Communication comm = s.communication(e);
    if (comm.kind == Communication::Kind::kBandwidth) {
      for (std::size_t i = 0; i < comm.profiles.size(); ++i) {
        expected += comm.profiles[i].volume() /
                    topo.link_speed(comm.route[i]);
      }
    }
  }
  EXPECT_NEAR(m.network_busy_time, expected, 1e-6);
}

TEST(Metrics, ToStringMentionsEveryField) {
  const dag::TaskGraph graph = dag::chain(2, 3.0, 1.0);
  Rng rng(1);
  const net::Topology topo =
      net::switched_star(2, net::SpeedConfig{}, rng);
  const Schedule s = SpecScheduler(ba_spec()).schedule(graph, topo);
  const std::string text =
      to_string(compute_metrics(graph, topo, s));
  for (const char* field :
       {"makespan", "SLR", "speedup", "efficiency", "utilisation",
        "route length"}) {
    EXPECT_NE(text.find(field), std::string::npos) << field;
  }
}

}  // namespace
}  // namespace edgesched::sched
