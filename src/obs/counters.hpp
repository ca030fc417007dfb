// Hot-path scheduler counters.
//
// The schedulers, timelines and routing layer count the work their inner
// loops perform (Dijkstra relaxations, insertion probes, deferral scans,
// candidate evaluations, ...) into one process-global MetricsRegistry.
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

#include "obs/metrics.hpp"

namespace edgesched::obs {

/// Process-global registry for scheduler/runtime counters. Distinct from
/// any svc::SchedulerService instance registry (those track service
/// traffic; this one tracks algorithm internals).
[[nodiscard]] MetricsRegistry& global_metrics();

/// Pre-resolved counter references for instrumented hot paths.
struct HotCounters {
  Counter& dijkstra_relaxations;  ///< modified-routing probe relaxations
  Counter& dijkstra_links_scanned;  ///< arcs its expansions walked
  Counter& dijkstra_pops;  ///< nodes its heap popped (settled)
  Counter& link_probes;           ///< first-fit insertion searches
  Counter& optimal_probes;        ///< optimal-insertion searches
  Counter& deferral_scans;        ///< Lemma-2 slack reads from link slots
  Counter& slot_shifts;           ///< occupations displaced by deferral
  Counter& deferred_insertions;   ///< insertions that displaced slots
  Counter& bandwidth_probes;      ///< BBSA bandwidth routing probes
  Counter& forward_steps;         ///< BBSA fluid forward-sweep steps
  Counter& probe_gap_steps;    ///< idle intervals examined by probes
  Counter& optimal_scan_steps; ///< slots visited by the accum scan
  Counter& processor_queries;     ///< processor insertion searches
  Counter& processor_gap_steps;   ///< idle gaps examined by them
  Counter& candidates_evaluated;  ///< processor candidates scored
  Counter& tasks_placed;
  Counter& edges_routed;  ///< remote edges committed to the network
  Counter& pool_jobs;     ///< svc::ThreadPool jobs executed
  Counter& sweep_instances;
  Counter& exec_events;       ///< executor events processed
  Counter& exec_dispatch_checks;  ///< processor/domain/op readiness checks
  Counter& exec_faults;       ///< fault events injected
  Counter& exec_retries;      ///< task/transfer attempts restarted
  Counter& exec_reschedules;  ///< online replans performed
};

[[nodiscard]] HotCounters& hot_counters();

}  // namespace edgesched::obs
