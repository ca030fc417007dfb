// Micro-benchmarks of the timeline substrates: insertion search, optimal
// insertion with deferral, and the fluid bandwidth sweep.
#include <benchmark/benchmark.h>

#include <utility>

#include "timeline/bandwidth_timeline.hpp"
#include "timeline/link_timeline.hpp"
#include "timeline/optimal_insertion.hpp"
#include "util/rng.hpp"

namespace {

using namespace edgesched;

timeline::LinkTimeline packed_timeline(std::size_t slots, Rng& rng) {
  timeline::LinkTimeline tl;
  for (std::size_t i = 0; i < slots; ++i) {
    const double duration = rng.uniform_real(0.5, 3.0);
    const double gap = rng.uniform_real(0.0, 1.0);
    tl.commit(tl.probe_basic(tl.last_finish() + gap, 0.0, duration),
              dag::EdgeId(i));
  }
  return tl;
}

void BM_BasicInsertionProbe(benchmark::State& state) {
  Rng rng(1);
  const timeline::LinkTimeline tl =
      packed_timeline(static_cast<std::size_t>(state.range(0)), rng);
  double t_es = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tl.probe_basic(t_es, 0.0, 1.5));
    t_es += 0.37;
    if (t_es > tl.last_finish()) {
      t_es = 0.0;
    }
  }
}
BENCHMARK(BM_BasicInsertionProbe)->Arg(16)->Arg(128)->Arg(1024);

void BM_OptimalInsertionProbe(benchmark::State& state) {
  Rng rng(2);
  timeline::LinkTimeline tl =
      packed_timeline(static_cast<std::size_t>(state.range(0)), rng);
  for (std::size_t i = 0; i < tl.size(); ++i) {
    tl.set_deferral(i, (i % 3 == 0) ? 1.0 : 0.0);
  }
  double t_es = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(timeline::probe_optimal(tl, t_es, 0.0, 1.5));
    t_es += 0.37;
    if (t_es > tl.last_finish()) {
      t_es = 0.0;
    }
  }
}
BENCHMARK(BM_OptimalInsertionProbe)->Arg(16)->Arg(128)->Arg(1024);

void BM_BandwidthTransferAndConsume(benchmark::State& state) {
  for (auto _ : state) {
    timeline::BandwidthTimeline tl(4.0);
    Rng rng(3);
    for (int i = 0; i < state.range(0); ++i) {
      const double ready = rng.uniform_real(0.0, 50.0);
      timeline::RateProfile p;
      tl.transfer_from(ready, rng.uniform_real(1.0, 8.0), p);
      tl.consume(p);
    }
    benchmark::DoNotOptimize(tl.remaining_at(25.0));
  }
}
BENCHMARK(BM_BandwidthTransferAndConsume)->Arg(16)->Arg(64)->Arg(256);

void BM_BandwidthForwardChain(benchmark::State& state) {
  const auto hops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<timeline::BandwidthTimeline> chain;
    for (std::size_t i = 0; i < hops; ++i) {
      chain.emplace_back(1.0 + static_cast<double>(i % 3));
    }
    timeline::RateProfile profile;
    chain[0].transfer_from(0.0, 20.0, profile);
    chain[0].consume(profile);
    timeline::RateProfile next;
    for (std::size_t i = 1; i < hops; ++i) {
      chain[i].forward(profile, next);
      std::swap(profile, next);
      chain[i].consume(profile);
    }
    benchmark::DoNotOptimize(profile.finish_time());
  }
}
BENCHMARK(BM_BandwidthForwardChain)->Arg(2)->Arg(4)->Arg(8);

// One forward onto a link already carrying ~B breakpoints, as on a busy
// BBSA hop. The chain above forwards only onto fresh links; here the
// sweep's cost should follow the breakpoints it crosses, not B.
void BM_BandwidthForwardLoaded(benchmark::State& state) {
  const auto target = static_cast<std::size_t>(state.range(0));
  const double horizon = static_cast<double>(target);
  timeline::BandwidthTimeline tl(4.0);
  Rng rng(4);
  timeline::RateProfile booked;
  while (tl.breakpoints().size() < target) {
    tl.transfer_from(rng.uniform_real(0.0, horizon),
                     rng.uniform_real(0.5, 4.0), booked);
    tl.consume(booked);
  }
  timeline::BandwidthTimeline upstream(2.0);
  timeline::RateProfile inflow;
  upstream.transfer_from(0.5 * horizon, 20.0, inflow);
  timeline::RateProfile out;
  for (auto _ : state) {
    tl.forward(inflow, out);
    benchmark::DoNotOptimize(out.finish_time());
  }
}
BENCHMARK(BM_BandwidthForwardLoaded)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
