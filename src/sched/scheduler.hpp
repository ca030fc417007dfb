// Abstract scheduler interface: map a task DAG onto a network topology.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dag/task_graph.hpp"
#include "net/topology.hpp"
#include "sched/schedule.hpp"

namespace edgesched::sched {

class PlatformContext;  // sched/platform.hpp

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Produces a complete schedule on the context's topology (one
  /// per-topology snapshot, shareable across many runs; see
  /// sched/platform.hpp). The graph must be acyclic and the topology
  /// must contain at least one processor with all processors mutually
  /// reachable. Subclasses override this one virtual and re-export the
  /// topology overload with `using Scheduler::schedule;`.
  [[nodiscard]] virtual Schedule schedule(
      const dag::TaskGraph& graph, const PlatformContext& platform) const = 0;

  /// One-off schedule: builds a throwaway `PlatformContext` over
  /// `topology` (no route discovery up front) and schedules through it.
  [[nodiscard]] Schedule schedule(const dag::TaskGraph& graph,
                                  const net::Topology& topology) const;

  /// Short display name ("BA", "OIHSA", "BBSA", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Structural identity of this scheduler's *configuration*, used by the
  /// service layer to key its schedule cache. Two schedulers with equal
  /// fingerprints must produce identical schedules on every instance.
  /// Defaults to a hash of `name()`, which is complete for the classes
  /// without settings (CLASSIC, GA, SA); engine-backed schedulers
  /// override with their `AlgorithmSpec` fingerprint so two specs
  /// sharing a name key apart.
  [[nodiscard]] virtual std::uint64_t fingerprint() const;

 protected:
  /// Common argument validation for all schedulers. The graph needs
  /// none: `dag::TaskGraphBuilder::build()` proved it acyclic.
  static void check_inputs(const net::Topology& topology);
};

/// All contention-aware algorithms of the reproduction, for sweep drivers.
[[nodiscard]] std::vector<std::unique_ptr<Scheduler>> all_schedulers();

}  // namespace edgesched::sched
