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
#pragma once

#include <cstdint>

#include "sched/assignment.hpp"
#include "sched/scheduler.hpp"

namespace edgesched::sched {

class AnnealingScheduler final : public Scheduler {
 public:
  struct Options {
    std::size_t iterations = 800;
    /// Initial temperature as a fraction of the starting makespan.
    double initial_temperature_fraction = 0.05;
    /// Geometric cooling factor applied every iteration.
    double cooling = 0.995;
    std::uint64_t seed = 1;
    AssignmentOptions evaluation;
  };

  AnnealingScheduler() = default;
  explicit AnnealingScheduler(const Options& options);

  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;
  [[nodiscard]] std::string name() const override { return "SA"; }

 private:
  Options options_;
};

}  // namespace edgesched::sched
