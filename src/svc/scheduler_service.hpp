// Concurrent scheduling service: job API over the thread pool + cache.
//
// The service turns the scheduler library into something that absorbs
// many concurrent requests:
//
//          submit(graph, topology, algorithm)
//                        |
//                  fingerprint key
//                        |
//              cache hit -+- cache miss
//                 |              |
//          ready future     ThreadPool job ----> Scheduler::schedule
//                                |                      |
//                           cache.put  <------  shared_ptr<const Schedule>
//
// Requests are accepted as shared_ptr<const TaskGraph/Topology> so that a
// client can submit many requests against the same objects without
// copying them per job; the service keeps them alive until the job ran.
// Results come back as std::future<shared_ptr<const Schedule>>; scheduler
// exceptions propagate through the future.
//
// Every accepted request increments `svc_requests_total`; completed
// schedules record their wall-clock latency in `svc_schedule_seconds`,
// and cache traffic shows up both in each cache's own stats() and in
// the `svc_{,exec_,platform_}cache_{hits,misses,evictions}_total`
// counters (bound via LruCache::bind_counters, so the metrics snapshot
// exports all three caches uniformly).
//
// Beyond the result caches the service amortises two kinds of
// per-request setup:
//
//   * Schedulers resolved by registry name are memoised (one instance
//     per canonical key, shared by every job) — repeated submissions
//     stop re-validating the spec and re-interning span names.
//   * A content-addressed `PlatformCache` keyed by
//     `Topology::fingerprint()` shares one
//     `sched::PlatformContext` — lazily filled route table, cached
//     reductions, pooled per-run workspaces — across every job against
//     the same fabric (sched/platform.hpp; `share_platform` disables
//     the sharing for ablation/benchmarking).
//
// Concurrency notes: all members are thread-safe. Two concurrent submits
// of the same not-yet-cached request both compute (last put wins) — the
// cache deduplicates storage, not in-flight work; for the pure functions
// served here recomputation is merely redundant, never wrong. The same
// holds for two jobs racing to build one platform context.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dag/task_graph.hpp"
#include "exec/executor.hpp"
#include "exec/report.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/platform.hpp"
#include "sched/scheduler.hpp"
#include "svc/lru_cache.hpp"
#include "svc/schedule_cache.hpp"
#include "svc/thread_pool.hpp"

namespace edgesched::svc {

struct ServiceConfig {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
  /// Maximum cached schedules (LRU beyond that).
  std::size_t cache_capacity = 1024;
  /// Maximum cached execution reports (LRU beyond that).
  std::size_t exec_cache_capacity = 256;
  /// Maximum cached platform contexts (LRU beyond that). Contexts are
  /// per-topology, so this bounds the number of distinct fabrics whose
  /// derived state stays resident.
  std::size_t platform_cache_capacity = 64;
  /// Share one PlatformContext per topology across jobs (the platform
  /// cache). False rebuilds the context for every job — the cold
  /// baseline bench/service_throughput measures against.
  bool share_platform = true;
  /// Run every computed schedule through sched::validate_or_throw.
  bool validate = false;
  /// Intra-run worker threads each GA/SA pool job may fan its
  /// evaluations across (sched/intra_run.hpp; engine-backed algorithms
  /// run serially); 0 means hardware concurrency. The
  /// service clamps the product `intra_threads × pool threads` to
  /// hardware concurrency so concurrent jobs cannot oversubscribe the
  /// machine; the clamped value is exported as the
  /// `svc_intra_threads_effective` metric. The default of 1 keeps jobs
  /// serial (one core per job, the pool provides the parallelism).
  std::size_t intra_threads = 1;
};

/// Content-addressed LRU cache of execution reports; execution is as pure
/// as scheduling (seeded model, scripted faults), so replays memoise too.
using ExecutionCache = LruCache<exec::ExecutionReport>;

/// Content-addressed LRU cache of immutable per-topology platform
/// contexts, keyed by `Topology::fingerprint()`.
using PlatformCache = LruCache<sched::PlatformContext>;

class SchedulerService {
 public:
  using SchedulePtr = ScheduleCache::SchedulePtr;
  using ExecutionPtr = ExecutionCache::ValuePtr;

  explicit SchedulerService(ServiceConfig config = {});

  /// Drains in-flight jobs, then stops the workers.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Enqueues one scheduling request. `algorithm` is resolved through
  /// `make_scheduler` immediately, so an unknown name throws here rather
  /// than through the future. Cache hits resolve the future immediately
  /// without touching the pool.
  [[nodiscard]] std::future<SchedulePtr> submit(
      std::shared_ptr<const dag::TaskGraph> graph,
      std::shared_ptr<const net::Topology> topology,
      const std::string& algorithm);

  /// Enqueues one scheduling request for an explicit engine bundle —
  /// preset or novel. The cache key is the spec's structural
  /// fingerprint, so two bundles sharing a display name but differing in
  /// any policy cache independently. Throws std::invalid_argument for an
  /// inconsistent spec (AlgorithmSpec::validate).
  [[nodiscard]] std::future<SchedulePtr> submit(
      std::shared_ptr<const dag::TaskGraph> graph,
      std::shared_ptr<const net::Topology> topology,
      const sched::AlgorithmSpec& spec);

  /// Enqueues one execution request: replay `schedule` on the pool under
  /// the discrete-event executor (src/exec). Keyed by the instance, the
  /// schedule's result fingerprint and the execution options, so repeated
  /// what-if replays of one plan hit the execution cache. Option
  /// validation errors throw here; runtime failures (fail-stop aborts,
  /// retry exhaustion) come back as reports with completed == false.
  [[nodiscard]] std::future<ExecutionPtr> execute(
      std::shared_ptr<const dag::TaskGraph> graph,
      std::shared_ptr<const net::Topology> topology, SchedulePtr schedule,
      exec::ExecutionOptions options = {});

  [[nodiscard]] const ScheduleCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] const PlatformCache& platform_cache() const noexcept {
    return platform_cache_;
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return pool_.num_threads();
  }

  /// Stops accepting requests and drains workers (idempotent).
  void shutdown() { pool_.shutdown(); }

  /// Algorithm factory, resolved through the central
  /// `sched::algorithm_registry()` (case-insensitive keys and aliases;
  /// see sched/registry.hpp). Throws std::invalid_argument for unknown
  /// names.
  [[nodiscard]] static std::unique_ptr<sched::Scheduler> make_scheduler(
      std::string_view name);

  /// Memoised variant of `make_scheduler`: one shared scheduler instance
  /// per canonical registry key (aliases and case variants share), so
  /// repeated submissions of the same algorithm skip spec validation and
  /// span-name interning. Schedulers are stateless between runs, hence
  /// safe to share across pool workers. Throws std::invalid_argument for
  /// unknown names.
  [[nodiscard]] std::shared_ptr<const sched::Scheduler> scheduler_for(
      std::string_view name);

 private:
  /// Common path: cache by the scheduler's structural fingerprint, or
  /// compute on the pool.
  [[nodiscard]] std::future<SchedulePtr> submit_scheduler(
      std::shared_ptr<const dag::TaskGraph> graph,
      std::shared_ptr<const net::Topology> topology,
      std::shared_ptr<const sched::Scheduler> scheduler);

  /// Returns the shared platform context for `topology`, building and
  /// caching it on first sight (keyed by content fingerprint). Called on
  /// worker threads; concurrent builds of the same context are benign
  /// (last put wins, both results equivalent).
  [[nodiscard]] std::shared_ptr<const sched::PlatformContext> platform_for(
      const std::shared_ptr<const net::Topology>& topology);

  ServiceConfig config_;
  /// Intra-run worker count every job actually runs with: the configured
  /// `ServiceConfig::intra_threads` clamped so that `intra × pool` never
  /// exceeds hardware concurrency (always >= 1).
  std::size_t effective_intra_threads_ = 1;
  obs::MetricsRegistry metrics_;
  ScheduleCache cache_;
  ExecutionCache exec_cache_;
  PlatformCache platform_cache_;
  ThreadPool pool_;
  obs::Counter& requests_;
  obs::Counter& failures_;
  obs::Histogram& latency_;
  obs::Counter& exec_requests_;
  obs::Histogram& exec_latency_;
  std::mutex scheduler_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const sched::Scheduler>>
      schedulers_;  ///< keyed by canonical registry key; see scheduler_for
};

}  // namespace edgesched::svc
