// End-to-end observability: run OIHSA on a hand-computed instance and
// assert the decision log explains the schedule — which processor won
// each §4.1 estimate, the §4.2 edge order, and the §4.3/§4.4 route each
// remote edge was booked on.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dag/generators.hpp"
#include "dag/task_graph.hpp"
#include "net/builders.hpp"
#include "net/topology.hpp"
#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "sched/engine.hpp"
#include "sched/validator.hpp"
#include "util/rng.hpp"

namespace edgesched {
namespace {

// Diamond-free join: a(2), b(3), c(4) all feed d(1); edge costs a->d 6,
// b->d 2, c->d 4. Two unit-speed processors joined by one duplex link of
// rate 1. Hand-worked OIHSA run:
//   bottom levels: a 9, b 6, c 9, d 1  =>  list order a, c, b, d
//   a -> p0 (both estimates 2; first wins), finishes at 2
//   c -> p1 (est 6 on p0 behind a, 4 on free p1), finishes at 4
//   b -> p0 (est 5 behind a; 7 on p1 behind c), finishes at 5
//   d -> p0 (ready moment 5; arrival estimate 9 on both; p0 kept)
//   edges of d in decreasing cost: a->d local, c->d routed p1->p0 over
//   the link at [5, 9], b->d local  =>  d runs [9, 10], makespan 10.
struct JoinFixture {
  dag::TaskGraph graph;
  net::Topology topo;
  dag::TaskId a, b, c, d;
  dag::EdgeId ad, bd, cd;

  JoinFixture() {
    dag::TaskGraphBuilder builder;
    a = builder.add_task(2.0, "a");
    b = builder.add_task(3.0, "b");
    c = builder.add_task(4.0, "c");
    d = builder.add_task(1.0, "d");
    ad = builder.add_edge(a, d, 6.0);
    bd = builder.add_edge(b, d, 2.0);
    cd = builder.add_edge(c, d, 4.0);
    graph = builder.build();
    const net::NodeId p0 = topo.add_processor(1.0, "p0");
    const net::NodeId p1 = topo.add_processor(1.0, "p1");
    topo.add_duplex_link(p0, p1, 1.0);
  }
};

/// The JSONL lines of `type` ("task", "edge", ...) in recording order.
std::vector<obs::JsonValue> decisions_of(const std::string& jsonl,
                                         const std::string& type) {
  std::vector<obs::JsonValue> docs;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue doc = obs::JsonValue::parse(line);
    if (doc.at("type").as_string() == type) {
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

/// Numeric member `key` of a decision line.
double num(const obs::JsonValue& doc, const char* key) {
  return doc.at(key).as_number();
}

TEST(ObsIntegration, OihsaTaskDecisionsMatchHandComputation) {
  const JoinFixture fx;
  std::ostringstream out;
  obs::DecisionLog log(out);
  sched::Schedule schedule = [&] {
    obs::ScopedDecisionLog scoped(log);
    return sched::SpecScheduler(sched::oihsa_spec())
        .schedule(fx.graph, fx.topo);
  }();
  sched::validate_or_throw(fx.graph, fx.topo, schedule);
  EXPECT_DOUBLE_EQ(schedule.makespan(), 10.0);

  const auto tasks = decisions_of(out.str(), "task");
  ASSERT_EQ(tasks.size(), 4u);
  // §4.2 list order by bottom level: a, c, b, d.
  EXPECT_EQ(num(tasks[0], "task"), fx.a.index());
  EXPECT_EQ(num(tasks[1], "task"), fx.c.index());
  EXPECT_EQ(num(tasks[2], "task"), fx.b.index());
  EXPECT_EQ(num(tasks[3], "task"), fx.d.index());
  for (const auto& t : tasks) {
    EXPECT_EQ(t.at("algorithm").as_string(), "OIHSA");
    // both processors considered
    ASSERT_EQ(t.at("candidates").size(), 2u);
  }
  const auto candidate_estimate = [&](std::size_t task, std::size_t i) {
    return num(tasks[task].at("candidates").at(i), "estimate");
  };

  // a: tie at estimate 2, first processor kept.
  EXPECT_EQ(num(tasks[0], "chosen_processor"), 0u);
  EXPECT_DOUBLE_EQ(num(tasks[0], "chosen_estimate"), 2.0);
  EXPECT_DOUBLE_EQ(candidate_estimate(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(candidate_estimate(0, 1), 2.0);

  // c: p0 is busy with a until 2 (estimate 6), p1 is free (estimate 4).
  EXPECT_EQ(num(tasks[1], "chosen_processor"), 1u);
  EXPECT_DOUBLE_EQ(num(tasks[1], "chosen_estimate"), 4.0);
  EXPECT_DOUBLE_EQ(candidate_estimate(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(candidate_estimate(1, 1), 4.0);

  // b: behind a on p0 (5) beats behind c on p1 (7).
  EXPECT_EQ(num(tasks[2], "chosen_processor"), 0u);
  EXPECT_DOUBLE_EQ(num(tasks[2], "chosen_estimate"), 5.0);
  EXPECT_DOUBLE_EQ(candidate_estimate(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(candidate_estimate(2, 1), 7.0);

  // d: estimated data-ready 8 and finish 9 on either processor.
  EXPECT_EQ(num(tasks[3], "chosen_processor"), 0u);
  EXPECT_DOUBLE_EQ(num(tasks[3], "chosen_estimate"), 9.0);
  for (std::size_t i = 0; i < 2; ++i) {
    const obs::JsonValue& candidate = tasks[3].at("candidates").at(i);
    EXPECT_DOUBLE_EQ(num(candidate, "ready_estimate"), 8.0);
    EXPECT_DOUBLE_EQ(num(candidate, "estimate"), 9.0);
  }
}

TEST(ObsIntegration, OihsaEdgeDecisionsMatchHandComputation) {
  const JoinFixture fx;
  std::ostringstream out;
  obs::DecisionLog log(out);
  {
    obs::ScopedDecisionLog scoped(log);
    (void)sched::SpecScheduler(sched::oihsa_spec())
        .schedule(fx.graph, fx.topo);
  }

  const auto edges = decisions_of(out.str(), "edge");
  ASSERT_EQ(edges.size(), 3u);
  // §4.2: d's in-edges booked in decreasing cost order 6, 4, 2.
  EXPECT_EQ(num(edges[0], "edge"), fx.ad.index());
  EXPECT_EQ(num(edges[1], "edge"), fx.cd.index());
  EXPECT_EQ(num(edges[2], "edge"), fx.bd.index());

  // a->d and b->d stay on p0 with d: local, arrival = source finish /
  // ready moment, no hops.
  EXPECT_TRUE(edges[0].at("local").as_bool());
  EXPECT_DOUBLE_EQ(num(edges[0], "arrival"), 2.0);
  EXPECT_EQ(edges[0].at("hops").size(), 0u);
  EXPECT_TRUE(edges[2].at("local").as_bool());
  EXPECT_DOUBLE_EQ(num(edges[2], "arrival"), 5.0);

  // c->d crosses p1 -> p0: one hop occupying the link over [5, 9].
  EXPECT_FALSE(edges[1].at("local").as_bool());
  EXPECT_EQ(num(edges[1], "src_task"), fx.c.index());
  EXPECT_EQ(num(edges[1], "dst_task"), fx.d.index());
  EXPECT_DOUBLE_EQ(num(edges[1], "ship_time"), 5.0);
  EXPECT_DOUBLE_EQ(num(edges[1], "arrival"), 9.0);
  ASSERT_EQ(edges[1].at("hops").size(), 1u);
  EXPECT_DOUBLE_EQ(num(edges[1].at("hops").at(0), "start"), 5.0);
  EXPECT_DOUBLE_EQ(num(edges[1].at("hops").at(0), "finish"), 9.0);

  // The one remote edge was committed by optimal insertion without
  // displacing anything: plain first-fit on an empty link.
  const auto insertions = decisions_of(out.str(), "insertion");
  ASSERT_EQ(insertions.size(), 1u);
  EXPECT_EQ(num(insertions[0], "edge"), fx.cd.index());
  EXPECT_EQ(insertions[0].at("outcome").as_string(), "first_fit");
  EXPECT_EQ(num(insertions[0], "shifts"), 0u);
  EXPECT_DOUBLE_EQ(num(insertions[0], "slack_consumed"), 0.0);
  EXPECT_DOUBLE_EQ(num(insertions[0], "start"), 5.0);
  EXPECT_DOUBLE_EQ(num(insertions[0], "finish"), 9.0);
}

TEST(ObsIntegration, BaTagsItsDecisionsWithItsOwnName) {
  const JoinFixture fx;
  std::ostringstream out;
  obs::DecisionLog log(out);
  {
    obs::ScopedDecisionLog scoped(log);
    (void)sched::SpecScheduler(sched::ba_spec()).schedule(fx.graph,
                                                          fx.topo);
  }
  const auto tasks = decisions_of(out.str(), "task");
  ASSERT_EQ(tasks.size(), 4u);
  for (const auto& t : tasks) {
    EXPECT_EQ(t.at("algorithm").as_string(), "BA");
  }
}

/// The MLS selection's candidate tally for a finished schedule: per task,
/// one winner per distinct processor speed plus the task's distinct
/// predecessor processors.
std::uint64_t mls_candidates(const dag::TaskGraph& graph,
                             const net::Topology& topology,
                             const sched::Schedule& schedule) {
  std::set<double> speeds;
  for (const net::NodeId p : topology.processors()) {
    speeds.insert(topology.processor_speed(p));
  }
  std::uint64_t total = 0;
  for (const dag::TaskId task : graph.all_tasks()) {
    std::set<net::NodeId> predecessors;
    for (const dag::EdgeId e : graph.in_edges(task)) {
      predecessors.insert(schedule.task(graph.edge(e).src).processor);
    }
    total += speeds.size() + predecessors.size();
  }
  return total;
}

TEST(ObsIntegration, HotCountersTallyTheRun) {
  const JoinFixture fx;
  obs::HotCounters& counters = obs::hot_counters();
  const std::uint64_t tasks_before = counters.tasks_placed.value();
  const std::uint64_t edges_before = counters.edges_routed.value();
  const std::uint64_t probes_before = counters.optimal_probes.value();

  (void)sched::SpecScheduler(sched::oihsa_spec())
      .schedule(fx.graph, fx.topo);

  // Counters batch inside the run and flush when the scheduling state is
  // torn down, so by the time schedule() returns they are visible.
  EXPECT_EQ(counters.tasks_placed.value() - tasks_before, 4u);
  EXPECT_EQ(counters.edges_routed.value() - edges_before, 1u);
  EXPECT_GT(counters.optimal_probes.value(), probes_before);

  // BA's selections score every processor for every task, so their tally
  // is tasks x processors. The MLS selection scores one winner per speed
  // group plus each task's distinct predecessor processors.
  Rng rng(5);
  dag::LayeredDagParams params;
  params.num_tasks = 200;
  const dag::TaskGraph big = dag::random_layered(params, rng);
  const net::Topology torus = net::torus2d(4, 4, {}, rng);
  for (const sched::SelectionPolicyKind kind :
       {sched::SelectionPolicyKind::kBlindEft,
        sched::SelectionPolicyKind::kTentativeEft,
        sched::SelectionPolicyKind::kMlsEstimate}) {
    const bool mls = kind == sched::SelectionPolicyKind::kMlsEstimate;
    sched::AlgorithmSpec spec =
        mls ? sched::oihsa_spec() : sched::ba_spec();
    spec.selection = kind;
    const sched::SpecScheduler scheduler(spec);
    std::uint64_t before = counters.candidates_evaluated.value();
    const sched::Schedule small = scheduler.schedule(fx.graph, fx.topo);
    EXPECT_EQ(counters.candidates_evaluated.value() - before,
              mls ? mls_candidates(fx.graph, fx.topo, small) : 4u * 2u)
        << "selection kind " << static_cast<int>(kind);
    if (mls) {
      // a, b, c: one group winner each; d: the winner plus p0 and p1.
      EXPECT_EQ(mls_candidates(fx.graph, fx.topo, small), 6u);
    }
    before = counters.candidates_evaluated.value();
    const sched::Schedule large = scheduler.schedule(big, torus);
    EXPECT_EQ(counters.candidates_evaluated.value() - before,
              mls ? mls_candidates(big, torus, large) : 200u * 16u)
        << "selection kind " << static_cast<int>(kind);
  }
}

TEST(ObsIntegration, NoLogInstalledMeansNothingRecorded) {
  const JoinFixture fx;
  ASSERT_EQ(obs::active_decision_log(), nullptr);
  const sched::Schedule schedule =
      sched::SpecScheduler(sched::oihsa_spec()).schedule(fx.graph, fx.topo);
  EXPECT_DOUBLE_EQ(schedule.makespan(), 10.0);
}

}  // namespace
}  // namespace edgesched
