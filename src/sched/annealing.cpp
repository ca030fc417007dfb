#include "sched/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sched/assignment.hpp"
#include "sched/engine.hpp"
#include "sched/intra_run.hpp"
#include "sched/platform.hpp"
#include "util/hash.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace edgesched::sched {

namespace {

constexpr std::size_t kIterations = 800;
/// Initial temperature as a fraction of the starting makespan.
constexpr double kInitialTemperatureFraction = 0.05;
/// Geometric cooling factor applied every iteration.
constexpr double kCooling = 0.995;
constexpr std::uint64_t kSeed = 1;

/// Per-iteration RNG stream: iteration m draws its move (gene, target
/// processor) and its acceptance uniform from a generator seeded by
/// (seed, 1, m), so the draw sequence depends only on the iteration
/// index. The acceptance uniform is drawn eagerly — even for downhill
/// moves that accept unconditionally — which keeps every iteration's
/// consumption of its stream fixed and the trajectory independent of
/// how many neighbors are probed speculatively (docs/parallelism.md).
Rng iteration_stream(std::uint64_t seed, std::uint64_t iteration) {
  Fingerprint fp;
  fp.mix(seed);
  fp.mix(std::uint64_t{1});
  fp.mix(iteration);
  return Rng(fp.value());
}

}  // namespace

Schedule AnnealingScheduler::schedule(const dag::TaskGraph& graph,
                                      const PlatformContext& platform) const {
  const net::Topology& topology = platform.topology();
  check_inputs(topology);
  const auto& processors = topology.processors();

  Assignment current = assignment_of(
      graph, SpecScheduler(oihsa_spec()).schedule(graph, platform));
  double current_cost = assignment_makespan(graph, topology, current);
  Assignment best = current;
  double best_cost = current_cost;

  double temperature =
      std::max(1e-9, kInitialTemperatureFraction * current_cost);

  // Speculative neighbor batches: K = lanes consecutive iterations draw
  // their moves from their per-iteration streams, evaluate concurrently
  // against the current state, then replay serially in iteration order.
  // A replayed reject (or null move) leaves the state unchanged, so the
  // next member's speculative cost is still exact; an accept invalidates
  // the rest of the batch, which is discarded and re-drawn from the
  // accepted state. Every decision therefore sees exactly the state the
  // serial walk would — the trajectory is bit-identical at any K,
  // including K = 1 (which IS the serial algorithm; wasted speculative
  // work is the only cost of K > 1).
  struct Move {
    std::size_t gene = 0;
    net::NodeId proc;
    double accept_u = 0.0;
    double cost = 0.0;
    bool null_move = false;
  };
  util::WorkerTeam team(std::min(intra_run_threads(), kIterations));
  std::vector<Move> batch(team.lanes());

  std::size_t it = 0;
  while (it < kIterations) {
    const std::size_t batch_size = std::min(batch.size(), kIterations - it);
    for (std::size_t m = 0; m < batch_size; ++m) {
      Rng rng = iteration_stream(kSeed, it + m);
      Move& move = batch[m];
      // Move: reassign one random task to a random processor.
      move.gene = rng.index(graph.num_tasks());
      move.proc = processors[rng.index(processors.size())];
      move.accept_u = rng.uniform_real(0.0, 1.0);
      move.null_move = move.proc == current[move.gene];
      move.cost = 0.0;
    }
    team.run(batch_size, [&](std::size_t /*lane*/, std::size_t begin,
                             std::size_t end) {
      for (std::size_t m = begin; m < end; ++m) {
        Move& move = batch[m];
        if (move.null_move) {
          continue;
        }
        Assignment trial = current;
        trial[move.gene] = move.proc;
        move.cost = assignment_makespan(graph, topology, trial);
      }
    });
    for (std::size_t m = 0; m < batch_size; ++m) {
      const Move& move = batch[m];
      ++it;
      if (move.null_move) {
        continue;  // null move; don't cool
      }
      const double delta = move.cost - current_cost;
      const bool accept =
          delta <= 0.0 || move.accept_u < std::exp(-delta / temperature);
      temperature *= kCooling;
      if (accept) {
        current[move.gene] = move.proc;
        current_cost = move.cost;
        if (move.cost < best_cost) {
          best_cost = move.cost;
          best = current;
        }
        break;  // remaining members were probed against a stale state
      }
    }
  }

  return schedule_assignment(graph, topology, best, name());
}

}  // namespace edgesched::sched
