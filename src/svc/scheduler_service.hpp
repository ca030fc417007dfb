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
// exceptions propagate through the future. Scheduling is the service's
// one job kind: replaying a schedule is `exec::execute`'s, called
// directly.
//
// Every accepted request increments `svc_requests_total`; completed
// schedules record their wall-clock latency in `svc_schedule_seconds`,
// and cache traffic shows up both in each cache's own stats() and in
// the `svc_{,platform_}cache_{hits,misses,evictions}_total` counters
// (bound via LruCache::bind_counters, so the metrics snapshot exports
// both caches uniformly).
//
// Beyond the result cache the service amortises two kinds of
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
// Each job runs GA/SA on one intra-run lane (sched/intra_run.hpp): the
// pool supplies the parallelism, so concurrent jobs never multiply
// threads.
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
#include "net/topology.hpp"
#include "obs/metrics.hpp"
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
  /// Share one PlatformContext per topology across jobs (the platform
  /// cache). False rebuilds the context for every job — the cold
  /// baseline bench/service_throughput measures against.
  bool share_platform = true;
  /// Run every computed schedule through sched::validate_or_throw.
  bool validate = false;
};

/// Content-addressed LRU cache of immutable per-topology platform
/// contexts, keyed by `Topology::fingerprint()`. The service keeps the 64
/// most recently used, which bounds the number of distinct fabrics whose
/// derived state stays resident.
using PlatformCache = LruCache<sched::PlatformContext>;

class SchedulerService {
 public:
  using SchedulePtr = ScheduleCache::SchedulePtr;

  explicit SchedulerService(ServiceConfig config = {});

  /// Drains in-flight jobs, then stops the workers.
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Enqueues one scheduling request. `algorithm` is resolved through
  /// `scheduler_for` immediately, so an unknown name throws here rather
  /// than through the future. Cache hits resolve the future immediately
  /// without touching the pool.
  [[nodiscard]] std::future<SchedulePtr> submit(
      std::shared_ptr<const dag::TaskGraph> graph,
      std::shared_ptr<const net::Topology> topology,
      const std::string& algorithm);

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

  /// Resolves `name` through `sched::algorithm_registry()`
  /// (case-insensitive keys and aliases; see sched/registry.hpp),
  /// memoised: one shared scheduler instance per canonical key, so
  /// repeated submissions of the same algorithm skip spec validation and
  /// span-name interning. Schedulers are stateless between runs, hence
  /// safe to share across pool workers. Throws std::invalid_argument for
  /// unknown names.
  [[nodiscard]] std::shared_ptr<const sched::Scheduler> scheduler_for(
      std::string_view name);

 private:
  /// Returns the shared platform context for `topology`, building and
  /// caching it on first sight (keyed by content fingerprint). Called on
  /// worker threads; concurrent builds of the same context are benign
  /// (last put wins, both results equivalent).
  [[nodiscard]] std::shared_ptr<const sched::PlatformContext> platform_for(
      const std::shared_ptr<const net::Topology>& topology);

  ServiceConfig config_;
  obs::MetricsRegistry metrics_;
  ScheduleCache cache_;
  PlatformCache platform_cache_;
  ThreadPool pool_;
  obs::Counter& requests_;
  obs::Counter& failures_;
  obs::Histogram& latency_;
  std::mutex scheduler_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const sched::Scheduler>>
      schedulers_;  ///< keyed by canonical registry key; see scheduler_for
};

}  // namespace edgesched::svc
