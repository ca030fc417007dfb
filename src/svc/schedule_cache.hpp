// Content-addressed LRU cache of computed schedules.
//
// Scheduling is pure: the same (graph, topology, scheduler) triple always
// yields the same Schedule, so results can be memoised under a canonical
// key. The key is the 64-bit `request_fingerprint` combining
// `TaskGraph::fingerprint()`, `Topology::fingerprint()` and
// `sched::Scheduler::fingerprint()` — identical content hashes
// identically no matter how or when the objects were built, which is
// what lets independent clients share hits.
//
// The LRU mechanics (thread safety, eviction, counters) live in the
// generic svc::LruCache — this header fixes the value type and owns the
// request key.
#pragma once

#include <cstdint>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"
#include "svc/lru_cache.hpp"

namespace edgesched::svc {

/// Canonical cache key of a scheduling request. Graph/topology/node/task
/// *names* do not contribute (see the fingerprint() contracts). Keying
/// on `sched::Scheduler::fingerprint()` rather than a display name means
/// two algorithm bundles sharing a name but differing in any policy (or
/// options) cache independently.
[[nodiscard]] std::uint64_t request_fingerprint(
    const dag::TaskGraph& graph, const net::Topology& topology,
    std::uint64_t algorithm_fingerprint);

class ScheduleCache : public LruCache<sched::Schedule> {
 public:
  using SchedulePtr = std::shared_ptr<const sched::Schedule>;
  using LruCache<sched::Schedule>::LruCache;
};

}  // namespace edgesched::svc
