// Micro-benchmarks of the end-to-end schedulers on a fixed mid-size
// instance: scheduling throughput of BA, OIHSA and BBSA.
#include <benchmark/benchmark.h>

#include "dag/generators.hpp"
#include "dag/properties.hpp"
#include "net/builders.hpp"
#include "sched/classic.hpp"
#include "sched/engine.hpp"

namespace {

using namespace edgesched;

struct FixedInstance {
  dag::TaskGraph graph;
  net::Topology topology;
};

FixedInstance instance(std::size_t tasks, std::size_t procs) {
  Rng rng(42);
  dag::LayeredDagParams params;
  params.num_tasks = tasks;
  dag::TaskGraph graph = dag::random_layered(params, rng);
  dag::rescale_to_ccr(graph, 2.0);
  net::RandomWanParams wan;
  wan.num_processors = procs;
  return FixedInstance{std::move(graph), net::random_wan(wan, rng)};
}

void schedule_instance(benchmark::State& state,
                       const sched::Scheduler& scheduler) {
  const FixedInstance inst =
      instance(static_cast<std::size_t>(state.range(0)),
               static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheduler.schedule(inst.graph, inst.topology));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inst.graph.num_tasks()));
}

void BM_ScheduleBA(benchmark::State& state) {
  schedule_instance(state, sched::SpecScheduler(sched::ba_spec()));
}
void BM_ScheduleOIHSA(benchmark::State& state) {
  schedule_instance(state, sched::SpecScheduler(sched::oihsa_spec()));
}
void BM_ScheduleBBSA(benchmark::State& state) {
  schedule_instance(state, sched::SpecScheduler(sched::bbsa_spec()));
}
void BM_ScheduleClassic(benchmark::State& state) {
  schedule_instance(state, sched::ClassicScheduler());
}

BENCHMARK(BM_ScheduleBA)->Args({60, 8})->Args({60, 32})->Args({120, 16});
BENCHMARK(BM_ScheduleOIHSA)->Args({60, 8})->Args({60, 32})->Args({120, 16});
BENCHMARK(BM_ScheduleBBSA)->Args({60, 8})->Args({60, 32})->Args({120, 16});
BENCHMARK(BM_ScheduleClassic)
    ->Args({60, 8})
    ->Args({60, 32})
    ->Args({120, 16});

}  // namespace
