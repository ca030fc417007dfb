#include "sim/perturbation.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/engine.hpp"

namespace edgesched::sim {
namespace {

struct Instance {
  dag::TaskGraph graph;
  net::Topology topo;
  sched::Schedule schedule;
};

Instance make(std::uint64_t seed) {
  Rng rng(seed);
  dag::LayeredDagParams params;
  params.num_tasks = 25;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 2.0);
  net::RandomWanParams wan;
  wan.num_processors = 4;
  net::Topology topo = net::random_wan(wan, rng);
  sched::Schedule schedule =
      sched::SpecScheduler(sched::oihsa_spec()).schedule(graph, topo);
  return Instance{std::move(graph), std::move(topo),
                  std::move(schedule)};
}

TEST(Robustness, ZeroSpreadReproducesNominal) {
  const Instance inst = make(1);
  PerturbationOptions options;
  options.spread = 0.0;
  options.trials = 3;
  const RobustnessReport report = assess_robustness(
      inst.graph, inst.topo, inst.schedule, options);
  EXPECT_NEAR(report.perturbed.mean(), report.nominal_makespan, 1e-9);
  EXPECT_NEAR(report.mean_slowdown, 1.0, 1e-9);
  EXPECT_NEAR(report.worst_slowdown, 1.0, 1e-9);
}

TEST(Robustness, NoiseChangesMakespans) {
  const Instance inst = make(2);
  PerturbationOptions options;
  options.spread = 0.3;
  options.trials = 20;
  const RobustnessReport report = assess_robustness(
      inst.graph, inst.topo, inst.schedule, options);
  EXPECT_GT(report.perturbed.stddev(), 0.0);
  EXPECT_GE(report.worst_slowdown, report.mean_slowdown);
  // ±30 % task noise cannot triple the makespan of a fixed assignment.
  EXPECT_LT(report.worst_slowdown, 3.0);
  EXPECT_GT(report.mean_slowdown, 0.5);
}

TEST(Robustness, DeterministicForSeed) {
  const Instance inst = make(3);
  const RobustnessReport a =
      assess_robustness(inst.graph, inst.topo, inst.schedule);
  const RobustnessReport b =
      assess_robustness(inst.graph, inst.topo, inst.schedule);
  EXPECT_DOUBLE_EQ(a.perturbed.mean(), b.perturbed.mean());
  EXPECT_DOUBLE_EQ(a.worst_slowdown, b.worst_slowdown);
}

TEST(Robustness, RejectsBadOptions) {
  const Instance inst = make(4);
  PerturbationOptions bad;
  bad.spread = 1.0;
  EXPECT_THROW((void)assess_robustness(inst.graph, inst.topo,
                                       inst.schedule, bad),
               std::invalid_argument);
  bad = PerturbationOptions{};
  bad.trials = 0;
  EXPECT_THROW((void)assess_robustness(inst.graph, inst.topo,
                                       inst.schedule, bad),
               std::invalid_argument);
}

TEST(Robustness, ComparableAcrossAlgorithms) {
  // Smoke: both list schedulers produce assignments the harness can
  // assess, and the reports are internally consistent.
  const Instance inst = make(5);
  const sched::Schedule ba =
      sched::SpecScheduler(sched::ba_spec()).schedule(inst.graph,
                                                      inst.topo);
  for (const sched::Schedule* s : {&inst.schedule, &ba}) {
    const RobustnessReport report =
        assess_robustness(inst.graph, inst.topo, *s);
    EXPECT_GT(report.nominal_makespan, 0.0);
    EXPECT_EQ(report.perturbed.count(), PerturbationOptions{}.trials);
  }
}

}  // namespace
}  // namespace edgesched::sim
