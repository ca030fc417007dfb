// Genetic-algorithm scheduler over processor assignments.
//
// The paper's introduction names genetic algorithms [5] as one of the
// established scheduling families list scheduling trades against. This
// implementation searches the task→processor assignment space with a
// steady-state GA; every chromosome is evaluated by the *contention-aware*
// fixed-assignment scheduler, so the fitness reflects real link queueing,
// not the idealised model. Seeded with the OIHSA and BA assignments plus
// random immigrants, it answers "how much makespan is left on the table
// by the one-pass heuristics?" at a few hundred times their cost.
//
// Every immigrant and offspring draws all of its randomness from its own
// (seed, phase, member)-keyed stream, so population generation and
// fitness evaluation fan across the intra-run worker team
// (sched/intra_run.hpp) while the search trajectory stays bit-identical
// to the serial run at any worker count. See docs/parallelism.md.
// Its settings are constants (genetic.cpp), so the name is a complete
// fingerprint: one instance, one schedule.
#pragma once

#include "sched/scheduler.hpp"

namespace edgesched::sched {

class GeneticScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;
  [[nodiscard]] std::string name() const override { return "GA"; }
};

}  // namespace edgesched::sched
