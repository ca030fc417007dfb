// Hot-path scheduler counters.
//
// The schedulers, timelines and routing layer count the work their inner
// loops perform (Dijkstra relaxations, insertion probes, deferral scans,
// candidate evaluations, ...) into one process-global svc::MetricsRegistry.
// Counters are always on; the cost discipline is *batching*: inner loops
// accumulate into plain locals or per-object members and flush a single
// atomic add per route / per scheduling state, so the per-operation cost
// on the hot path is a non-atomic increment.
//
// `hot_counters()` resolves every counter once (the references stay valid
// for the process lifetime; `MetricsRegistry::reset_for_test()` zeroes
// values without invalidating them). The full catalog is documented in
// docs/observability.md.
#pragma once

#include "svc/metrics.hpp"

namespace edgesched::obs {

/// Process-global registry for scheduler/runtime counters. Distinct from
/// any svc::SchedulerService instance registry (those track service
/// traffic; this one tracks algorithm internals).
[[nodiscard]] svc::MetricsRegistry& global_metrics();

/// Pre-resolved counter references for instrumented hot paths.
struct HotCounters {
  svc::Counter& dijkstra_relaxations;  ///< modified-routing probe relaxations
  svc::Counter& link_probes;           ///< first-fit insertion searches
  svc::Counter& optimal_probes;        ///< optimal-insertion searches
  svc::Counter& deferral_scans;        ///< Lemma-2 slack evaluations
  svc::Counter& slot_shifts;           ///< occupations displaced by deferral
  svc::Counter& deferred_insertions;   ///< insertions that displaced slots
  svc::Counter& bandwidth_probes;      ///< BBSA bandwidth routing probes
  svc::Counter& forward_steps;         ///< BBSA fluid forward-sweep steps
  svc::Counter& probe_gap_steps;    ///< idle intervals examined by probes
  svc::Counter& optimal_scan_steps; ///< slots visited by the accum scan
  svc::Counter& candidates_evaluated;  ///< processor candidates scored
  svc::Counter& tasks_placed;
  svc::Counter& edges_routed;  ///< remote edges committed to the network
  svc::Counter& pool_jobs;     ///< svc::ThreadPool jobs executed
  svc::Counter& sweep_instances;
  svc::Counter& exec_events;       ///< executor events processed
  svc::Counter& exec_faults;       ///< fault events injected
  svc::Counter& exec_retries;      ///< task/transfer attempts restarted
  svc::Counter& exec_reschedules;  ///< online replans performed
};

[[nodiscard]] HotCounters& hot_counters();

}  // namespace edgesched::obs
