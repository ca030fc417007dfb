// Insertion-heavy micro-benchmarks of the link-timeline hot path: the
// probe→commit cycle that dominates every scheduler run. Complements
// micro_timeline (which measures probes against a *static* timeline) by
// measuring the mutating patterns: first-fit commit growth, the Basic
// Algorithm's commit/uncommit rollback, optimal insertion with a live
// deferral cascade, and the full ExclusiveNetworkState edge commit.
#include <benchmark/benchmark.h>

#include <vector>

#include "net/builders.hpp"
#include "net/routing.hpp"
#include "sched/network_state.hpp"
#include "timeline/link_timeline.hpp"
#include "timeline/optimal_insertion.hpp"
#include "util/rng.hpp"

namespace {

using namespace edgesched;

// Grow a timeline to `slots` occupations with first-fit commits at
// randomized ready times — every probe runs against the slots committed
// so far, so the search cost compounds as the timeline fills.
void BM_FirstFitCommitGrowth(benchmark::State& state) {
  const auto slots = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    std::vector<double> ready(slots);
    for (double& r : ready) {
      r = rng.uniform_real(0.0, static_cast<double>(slots));
    }
    state.ResumeTiming();
    timeline::LinkTimeline tl;
    for (std::size_t i = 0; i < slots; ++i) {
      tl.commit(tl.probe_basic(ready[i], 0.0, 0.75), dag::EdgeId(i));
    }
    benchmark::DoNotOptimize(tl.last_finish());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_FirstFitCommitGrowth)->Arg(64)->Arg(256)->Arg(1024);

// The Basic Algorithm's tentative-evaluation pattern: probe + commit an
// edge into a packed timeline, then erase it again (rollback).
void BM_CommitEraseCycle(benchmark::State& state) {
  Rng rng(11);
  timeline::LinkTimeline tl;
  const auto slots = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < slots; ++i) {
    const double gap = rng.uniform_real(0.0, 1.0);
    tl.commit(tl.probe_basic(tl.last_finish() + gap, 0.0,
                             rng.uniform_real(0.5, 3.0)),
              dag::EdgeId(i));
  }
  const double horizon = tl.last_finish();
  double t_es = 0.0;
  for (auto _ : state) {
    const timeline::Placement p = tl.probe_basic(t_es, 0.0, 0.4);
    tl.commit(p, dag::EdgeId(slots));
    tl.erase(p.position);
    t_es += 1.13;
    if (t_es > horizon) {
      t_es = 0.0;
    }
  }
}
BENCHMARK(BM_CommitEraseCycle)->Arg(64)->Arg(256)->Arg(1024);

// Optimal insertion against a packed timeline with deferral slack on a
// third of the occupants, committed (cascade applied) and rolled back by
// rebuilding — measures probe + shift-cascade cost together.
void BM_OptimalInsertCommit(benchmark::State& state) {
  const auto slots = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(13);
    timeline::LinkTimeline tl;
    for (std::size_t i = 0; i < slots; ++i) {
      const double gap = rng.uniform_real(0.1, 0.6);
      tl.commit(tl.probe_basic(tl.last_finish() + gap, 0.0,
                               rng.uniform_real(0.5, 2.0)),
                dag::EdgeId(i));
      tl.set_deferral(i, (i % 3 == 0) ? 0.8 : 0.0);
    }
    state.ResumeTiming();
    double t_es = 0.0;
    for (std::size_t i = 0; i < 32; ++i) {
      const timeline::OptimalPlacement p =
          timeline::probe_optimal(tl, t_es, 0.0, 0.3);
      timeline::commit_optimal(tl, p, dag::EdgeId(slots + i));
      tl.set_deferral(p.placement.position,
                      ((slots + i) % 3 == 0) ? 0.8 : 0.0);
      t_es += 2.7;
    }
    benchmark::DoNotOptimize(tl.size());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_OptimalInsertCommit)->Arg(64)->Arg(256)->Arg(1024);

// End-to-end edge commit through ExclusiveNetworkState: route a stream
// of edges across a random WAN with optimal insertion, exercising the
// per-hop probes, slack writes and record bookkeeping together.
void BM_NetworkCommitOptimal(benchmark::State& state) {
  Rng rng(17);
  net::RandomWanParams params;
  params.num_processors = static_cast<std::size_t>(state.range(0));
  const net::Topology topo = net::random_wan(params, rng);
  const auto& procs = topo.processors();
  const std::size_t edges = 512;
  for (auto _ : state) {
    state.PauseTiming();
    const net::StaticRouteTable routes(topo);
    sched::ExclusiveNetworkState network(topo, edges);
    state.ResumeTiming();
    for (std::size_t i = 0; i < edges; ++i) {
      const net::NodeId from = procs[i % procs.size()];
      const net::NodeId to = procs[(i * 7 + 3) % procs.size()];
      if (from == to) {
        continue;
      }
      const double ready = static_cast<double>(i % 37) * 0.5;
      network.commit_edge_optimal(dag::EdgeId(i),
                                  routes.route(from, to), ready, 4.0);
    }
    benchmark::DoNotOptimize(network.total_busy_time());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges));
}
BENCHMARK(BM_NetworkCommitOptimal)->Arg(8)->Arg(32);

}  // namespace
