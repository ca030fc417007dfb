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
#pragma once

#include <cstdint>

#include "sched/assignment.hpp"
#include "sched/scheduler.hpp"

namespace edgesched::sched {

class GeneticScheduler final : public Scheduler {
 public:
  struct Options {
    std::size_t population = 24;
    std::size_t generations = 40;
    /// Per-gene mutation probability.
    double mutation_rate = 0.02;
    /// Fraction of the population replaced each generation.
    double replacement_fraction = 0.5;
    /// Tournament size for parent selection.
    std::size_t tournament = 3;
    std::uint64_t seed = 1;
    AssignmentOptions evaluation;
  };

  GeneticScheduler() = default;
  explicit GeneticScheduler(const Options& options);

  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;
  [[nodiscard]] std::string name() const override { return "GA"; }

 private:
  Options options_;
};

}  // namespace edgesched::sched
