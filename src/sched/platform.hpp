// Shared per-topology platform state vs per-run scratch.
//
// `PlatformContext` is the engine's only input besides the task graph
// (`Scheduler::schedule`). It splits what is derivable from the topology
// alone — shared across every run on the fabric: the service layer
// absorbing many DAGs against one deployment, sweep instances comparing
// three algorithms on one drawn topology, recovery replans on a
// surviving fabric — from per-run scratch:
//
//   * the minimal-route table (`net::StaticRouteTable`, filled lazily
//     one source at a time, so a context built for a single run costs
//     no route discovery the run does not ask for),
//   * the modified-routing search's arc lists (`net::TransitAdjacency`,
//     built eagerly in one O(N+L) pass),
//   * the unique-path router (`net::UniquePathRouter`, one O(N+L) pass;
//     on a tree fabric it answers every route, so neither the table nor
//     the search runs),
//   * the mean link speed (the §4.1 MLS estimate denominator),
//   * the topology's structural fingerprint (the service layer's
//     content-address for its platform cache),
//
// paired with a pool of per-run `Workspace` objects holding every piece
// of mutable scratch a run needs (Dijkstra workspace, edge-order,
// candidate and tentative-trial buffers). `checkout()` leases a
// workspace — reusing a pooled one when a previous run returned it,
// allocating fresh under contention — so N concurrent runs over one
// context never share mutable state.
//
// Thread-safety contract: every `const` member of `PlatformContext` is
// safe from any number of threads (the route table fills each source
// once under its own once-flag; the pool is mutex-guarded). A leased
// `Workspace` belongs to exactly one run on one thread until its lease
// is destroyed. Schedules produced through a shared context are
// byte-identical to runs through a fresh one (tests/platform_context_
// property_test.cpp fuzzes this across the whole algorithm registry).
//
// See docs/platform.md for the ownership/lifetime diagram.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "dag/task_graph.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "obs/decision_log.hpp"

namespace edgesched::sched {

/// All mutable per-run scratch of one engine run, poolable across runs.
/// `begin_run()` re-arms a pooled workspace by clearing the reusable
/// buffers; the Dijkstra workspace self-resets via its search epoch.
struct Workspace {
  net::RoutingWorkspace routing;
  std::vector<dag::EdgeId> order_scratch;
  std::vector<obs::ProcessorCandidate> candidates;
  /// Edges one tentative-EFT trial committed, for rollback between
  /// candidate processors.
  std::vector<dag::EdgeId> trial_edges;

  void begin_run() {
    order_scratch.clear();
    candidates.clear();
    trial_edges.clear();
  }
};

class PlatformContext;

/// RAII lease of one pooled `Workspace`: taken from the context's pool
/// (or freshly allocated when every pooled workspace is leased out) and
/// returned on destruction. Non-copyable, non-movable — the lease is
/// scoped to one run on one thread.
class WorkspaceLease {
 public:
  explicit WorkspaceLease(const PlatformContext& owner);
  ~WorkspaceLease();

  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] Workspace& operator*() const noexcept { return *workspace_; }
  [[nodiscard]] Workspace* operator->() const noexcept {
    return workspace_.get();
  }

 private:
  const PlatformContext* owner_;
  std::unique_ptr<Workspace> workspace_;
};

/// Immutable, thread-safe-by-construction snapshot of one topology's
/// derived scheduling state plus a pool of per-run workspaces. Build it
/// once per fabric and share it across every run on that fabric; see
/// the file comment for the contract.
class PlatformContext {
 public:
  /// Non-owning: `topology` must outlive the context (the sweep runner
  /// and recovery replans own the topology alongside the context).
  explicit PlatformContext(const net::Topology& topology);

  /// Shared ownership: the context keeps the topology alive (the
  /// service layer's platform cache hands contexts to jobs that may
  /// outlive the submitting request).
  explicit PlatformContext(std::shared_ptr<const net::Topology> topology);

  PlatformContext(const PlatformContext&) = delete;
  PlatformContext& operator=(const PlatformContext&) = delete;

  [[nodiscard]] const net::Topology& topology() const noexcept {
    return *topology_;
  }
  [[nodiscard]] const net::StaticRouteTable& routes() const noexcept {
    return routes_;
  }
  /// The arc lists `net::dijkstra_route_probe` walks (§4.3 routing).
  [[nodiscard]] const net::TransitAdjacency& transit() const noexcept {
    return transit_;
  }
  /// The walk that replaces both routing layers above when the fabric
  /// has one simple path per pair (`applies()`).
  [[nodiscard]] const net::UniquePathRouter& unique_paths() const noexcept {
    return unique_paths_;
  }
  /// Cached `Topology::mean_link_speed()` — O(L) once per context
  /// instead of once per MLS-estimate run.
  [[nodiscard]] double mean_link_speed() const noexcept {
    return mean_link_speed_;
  }
  /// Cached `Topology::fingerprint()`: the content address the service
  /// layer keys its platform cache on.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// Arena-sizing hint for `MachineState::reserve_slots`: the mean
  /// per-processor load of a `num_tasks` run on this fabric.
  [[nodiscard]] std::size_t slot_reserve_hint(
      std::size_t num_tasks) const noexcept {
    return num_tasks / num_processors_ + 8;
  }

  /// Leases a per-run workspace (pooled, allocated on demand).
  [[nodiscard]] WorkspaceLease checkout() const {
    return WorkspaceLease(*this);
  }

  /// Workspaces currently parked in the pool (observability/tests).
  [[nodiscard]] std::size_t pooled_workspaces() const;

 private:
  friend class WorkspaceLease;
  [[nodiscard]] std::unique_ptr<Workspace> acquire() const;
  void release(std::unique_ptr<Workspace> workspace) const;

  std::shared_ptr<const net::Topology> owned_;  ///< may be null
  const net::Topology* topology_;
  net::StaticRouteTable routes_;
  net::TransitAdjacency transit_;
  net::UniquePathRouter unique_paths_;
  double mean_link_speed_ = 0.0;
  std::uint64_t fingerprint_ = 0;
  std::size_t num_processors_ = 1;
  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<Workspace>> pool_;
};

}  // namespace edgesched::sched
