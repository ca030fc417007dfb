// Simulated-annealing scheduler over processor assignments.
//
// The second metaheuristic family of the paper's introduction [6]. The
// search state is a task→processor map; a move reassigns one random task;
// fitness is the contention-aware fixed-assignment makespan. Geometric
// cooling with Metropolis acceptance, started from the OIHSA assignment.
//
// Each iteration draws its move and acceptance uniform from its own
// (seed, iteration)-keyed stream, so batches of speculative neighbors
// evaluate across the intra-run worker team (sched/intra_run.hpp) while
// the accept/reject walk stays bit-identical to the serial run at any
// worker count. See docs/parallelism.md.
// Its settings are constants (annealing.cpp), so the name is a complete
// fingerprint: one instance, one schedule.
#pragma once

#include "sched/scheduler.hpp"

namespace edgesched::sched {

class AnnealingScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;
  [[nodiscard]] std::string name() const override { return "SA"; }
};

}  // namespace edgesched::sched
