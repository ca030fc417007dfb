// Micro-benchmark of the observability layer's own hot paths.
//
// The tracer is always compiled in, so the numbers that matter are the
// per-span cost in each mode — kDisabled is the price every scheduler
// phase pays on an untraced run (docs/observability.md documents the
// resulting <2 % budget on micro_schedulers) — plus the cost of a
// counter increment and of the decision-log activation check.
#include <benchmark/benchmark.h>

#include "obs/counters.hpp"
#include "obs/decision_log.hpp"
#include "obs/trace.hpp"

namespace {

using edgesched::obs::Span;
using edgesched::obs::TraceMode;
using edgesched::obs::Tracer;

void BM_SpanDisabled(benchmark::State& state) {
  Tracer::instance().set_mode(TraceMode::kDisabled);
  for (auto _ : state) {
    Span span("obs/bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanAggregate(benchmark::State& state) {
  Tracer::instance().set_mode(TraceMode::kAggregate);
  for (auto _ : state) {
    Span span("obs/bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  Tracer::instance().set_mode(TraceMode::kDisabled);
  Tracer::instance().clear();
}
BENCHMARK(BM_SpanAggregate);

void BM_SpanFull(benchmark::State& state) {
  Tracer::instance().set_mode(TraceMode::kFull);
  for (auto _ : state) {
    Span span("obs/bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  Tracer::instance().set_mode(TraceMode::kDisabled);
  Tracer::instance().clear();
}
BENCHMARK(BM_SpanFull);

void BM_CounterIncrement(benchmark::State& state) {
  edgesched::obs::Counter& counter =
      edgesched::obs::global_metrics().counter("bench_obs_counter_total");
  for (auto _ : state) {
    counter.increment();
  }
}
BENCHMARK(BM_CounterIncrement);

void BM_DecisionLogCheck(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(edgesched::obs::active_decision_log());
  }
}
BENCHMARK(BM_DecisionLogCheck);

}  // namespace
