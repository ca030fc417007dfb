#include "svc/scheduler_service.hpp"

#include <chrono>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/run_context.hpp"
#include "sched/intra_run.hpp"
#include "sched/registry.hpp"
#include "sched/validator.hpp"
#include "util/error.hpp"

namespace edgesched::svc {

SchedulerService::SchedulerService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      platform_cache_(/*capacity=*/64),  // see PlatformCache
      pool_(config.threads),
      requests_(metrics_.counter("svc_requests_total")),
      failures_(metrics_.counter("svc_failures_total")),
      latency_(metrics_.histogram("svc_schedule_seconds")) {
  // Both caches mirror their traffic into registry counters so the
  // metrics snapshot exports them uniformly.
  cache_.bind_counters(&metrics_.counter("svc_cache_hits_total"),
                       &metrics_.counter("svc_cache_misses_total"),
                       &metrics_.counter("svc_cache_evictions_total"));
  platform_cache_.bind_counters(
      &metrics_.counter("svc_platform_cache_hits_total"),
      &metrics_.counter("svc_platform_cache_misses_total"),
      &metrics_.counter("svc_platform_cache_evictions_total"));
}

SchedulerService::~SchedulerService() { pool_.shutdown(); }

std::shared_ptr<const sched::Scheduler> SchedulerService::scheduler_for(
    std::string_view name) {
  const sched::AlgorithmEntry* entry = sched::find_algorithm(name);
  if (entry == nullptr) {
    // Delegates the error path: make_scheduler throws the canonical
    // invalid_argument listing the known keys.
    return sched::make_scheduler(name);
  }
  const std::lock_guard<std::mutex> lock(scheduler_mutex_);
  auto it = schedulers_.find(entry->key);
  if (it == schedulers_.end()) {
    it = schedulers_.emplace(entry->key, entry->make()).first;
  }
  return it->second;
}

std::shared_ptr<const sched::PlatformContext> SchedulerService::platform_for(
    const std::shared_ptr<const net::Topology>& topology) {
  if (!config_.share_platform) {
    // Ablation/benchmark mode: pay the full per-job derivation cost.
    return std::make_shared<const sched::PlatformContext>(topology);
  }
  const std::uint64_t key = topology->fingerprint();
  if (PlatformCache::ValuePtr cached = platform_cache_.get(key)) {
    return cached;
  }
  // Concurrent misses both build; last put wins. The contexts are
  // equivalent (derived deterministically from the same topology), so
  // either result is correct for every racer.
  auto built = std::make_shared<const sched::PlatformContext>(topology);
  platform_cache_.put(key, built);
  return built;
}

std::future<SchedulerService::SchedulePtr> SchedulerService::submit(
    std::shared_ptr<const dag::TaskGraph> graph,
    std::shared_ptr<const net::Topology> topology,
    const std::string& algorithm) {
  // Resolve the algorithm up front: unknown names should fail loudly at
  // the call site, not asynchronously. Resolution is memoised per
  // canonical registry key (see scheduler_for).
  std::shared_ptr<const sched::Scheduler> scheduler = scheduler_for(algorithm);
  throw_if(graph == nullptr, "SchedulerService::submit: null graph");
  throw_if(topology == nullptr, "SchedulerService::submit: null topology");
  requests_.increment();

  // Mint the run ID at submission time (not in the job body) so IDs are
  // allocated in submission order — deterministic however the pool
  // interleaves the work. A caller-installed run scope is reused.
  const std::uint64_t caller_run = obs::current_run_id();
  const std::uint64_t run_id =
      caller_run != obs::kNoRun ? caller_run : obs::mint_run_id();

  // Key on the scheduler's structural fingerprint, not the requested
  // name: every alias and case variant of one algorithm shares entries.
  const std::uint64_t key =
      request_fingerprint(*graph, *topology, scheduler->fingerprint());
  if (SchedulePtr cached = cache_.get(key)) {
    obs::flight_recorder().record(obs::FlightEventKind::kCache,
                                  "svc/schedule", 0.0, 1);
    std::promise<SchedulePtr> ready;
    ready.set_value(std::move(cached));
    return ready.get_future();
  }
  obs::flight_recorder().record(obs::FlightEventKind::kCache, "svc/schedule",
                                0.0, 0);

  return pool_.submit([this, key, run_id, graph = std::move(graph),
                       topology = std::move(topology),
                       scheduler = std::move(scheduler)]() -> SchedulePtr {
    const obs::ScopedRunId run_scope(run_id);
    const sched::ScopedIntraThreads intra_scope(1);
    const auto start = std::chrono::steady_clock::now();
    try {
      // Resolve the shared per-topology platform on the worker: the
      // derived state (route table, reductions, workspace pool) is built
      // once per fabric and reused by every job that follows.
      const std::shared_ptr<const sched::PlatformContext> platform =
          platform_for(topology);
      auto schedule = std::make_shared<const sched::Schedule>(
          scheduler->schedule(*graph, *platform));
      if (config_.validate) {
        sched::validate_or_throw(*graph, *topology, *schedule);
      }
      latency_.observe(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      cache_.put(key, schedule);
      obs::flight_recorder().record(
          obs::FlightEventKind::kJob, "svc/schedule", 0.0,
          schedule->num_tasks(), schedule->makespan());
      return schedule;
    } catch (...) {
      failures_.increment();
      throw;  // delivered to the caller through the future
    }
  });
}

}  // namespace edgesched::svc
