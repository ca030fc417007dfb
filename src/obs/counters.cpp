#include "obs/counters.hpp"

namespace edgesched::obs {

MetricsRegistry& global_metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

HotCounters& hot_counters() {
  static HotCounters* counters = [] {
    MetricsRegistry& m = global_metrics();
    return new HotCounters{
        m.counter("sched_dijkstra_relaxations_total"),
        m.counter("sched_dijkstra_links_scanned_total"),
        m.counter("sched_dijkstra_pops_total"),
        m.counter("sched_link_probes_total"),
        m.counter("sched_optimal_probes_total"),
        m.counter("sched_deferral_scans_total"),
        m.counter("sched_slot_shifts_total"),
        m.counter("sched_deferred_insertions_total"),
        m.counter("sched_bandwidth_probes_total"),
        m.counter("timeline_forward_steps_total"),
        m.counter("sched_probe_gap_steps_total"),
        m.counter("sched_optimal_scan_steps_total"),
        m.counter("sched_processor_queries_total"),
        m.counter("sched_processor_gap_steps_total"),
        m.counter("sched_candidates_evaluated_total"),
        m.counter("sched_tasks_placed_total"),
        m.counter("sched_edges_routed_total"),
        m.counter("svc_pool_jobs_total"),
        m.counter("sim_sweep_instances_total"),
        m.counter("exec_events_total"),
        m.counter("exec_dispatch_checks_total"),
        m.counter("exec_faults_injected_total"),
        m.counter("exec_retries_total"),
        m.counter("exec_reschedules_total"),
    };
  }();
  return *counters;
}

}  // namespace edgesched::obs
