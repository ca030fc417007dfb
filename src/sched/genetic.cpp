#include "sched/genetic.hpp"

#include <algorithm>
#include <limits>
#include <utility>
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

constexpr std::size_t kPopulation = 24;
constexpr std::size_t kGenerations = 40;
/// Per-gene mutation probability.
constexpr double kMutationRate = 0.02;
/// Offspring per generation; they replace the worst individuals.
constexpr std::size_t kOffspring = kPopulation / 2;
/// Tournament size for parent selection.
constexpr std::size_t kTournament = 3;
constexpr std::uint64_t kSeed = 1;

struct Individual {
  Assignment genes;
  double fitness = std::numeric_limits<double>::infinity();
};

/// Decorrelated per-member RNG stream. Every stochastic member of the
/// search — immigrant i at phase 0, offspring k of generation g at phase
/// g+1 — draws all of its randomness from its own generator seeded by
/// (seed, phase, member). The draw sequence is therefore a function of
/// the member's identity, not of execution order, which is what lets the
/// population evaluate in parallel while staying bit-identical to the
/// serial schedule at any worker count (docs/parallelism.md).
Rng member_stream(std::uint64_t seed, std::uint64_t phase,
                  std::uint64_t member) {
  Fingerprint fp;
  fp.mix(seed);
  fp.mix(phase);
  fp.mix(member);
  return Rng(fp.value());
}

Assignment random_assignment(const dag::TaskGraph& graph,
                             const net::Topology& topology, Rng& rng) {
  const auto& processors = topology.processors();
  Assignment assignment(graph.num_tasks());
  for (auto& gene : assignment) {
    gene = processors[rng.index(processors.size())];
  }
  return assignment;
}

}  // namespace

Schedule GeneticScheduler::schedule(const dag::TaskGraph& graph,
                                    const PlatformContext& platform) const {
  const net::Topology& topology = platform.topology();
  check_inputs(topology);

  const auto evaluate = [&](const Assignment& genes) {
    // Pure: owns all of its scratch, so concurrent evaluations over one
    // population are safe.
    return assignment_makespan(graph, topology, genes);
  };

  // Population: the two list-scheduler assignments seed the search, the
  // rest are random immigrants, each drawn from its own member stream.
  std::vector<Individual> population;
  population.reserve(kPopulation);
  population.push_back(Individual{
      assignment_of(graph,
                    SpecScheduler(oihsa_spec()).schedule(graph, platform)),
      0.0});
  population.push_back(Individual{
      assignment_of(graph,
                    SpecScheduler(ba_spec()).schedule(graph, platform)),
      0.0});
  while (population.size() < kPopulation) {
    Rng rng = member_stream(kSeed, 0, population.size());
    population.push_back(
        Individual{random_assignment(graph, topology, rng), 0.0});
  }

  // One worker team for the whole search; generation and evaluation of
  // every member fan across it. Serial at the default worker count of 1.
  util::WorkerTeam team(std::min(intra_run_threads(), kPopulation));
  team.run(population.size(),
           [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) {
               population[i].fitness = evaluate(population[i].genes);
             }
           });

  std::vector<Individual> offspring(kOffspring);

  const auto& processors = topology.processors();
  for (std::size_t gen = 0; gen < kGenerations; ++gen) {
    // Offspring k draws parents, crossover and mutation from its own
    // stream and reads the population snapshot (constant until the
    // serial replacement below), so members are order-independent.
    team.run(kOffspring, [&](std::size_t /*lane*/, std::size_t begin,
                             std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        Rng rng = member_stream(kSeed, gen + 1, k);
        const auto tournament_pick = [&]() -> const Individual& {
          const Individual* best = nullptr;
          for (std::size_t i = 0; i < kTournament; ++i) {
            const Individual& candidate =
                population[rng.index(population.size())];
            if (best == nullptr || candidate.fitness < best->fitness) {
              best = &candidate;
            }
          }
          return *best;
        };
        const Individual& mother = tournament_pick();
        const Individual& father = tournament_pick();
        // Uniform crossover + per-gene mutation.
        Individual child;
        child.genes.resize(graph.num_tasks());
        for (std::size_t g = 0; g < child.genes.size(); ++g) {
          child.genes[g] =
              rng.bernoulli(0.5) ? mother.genes[g] : father.genes[g];
          if (rng.bernoulli(kMutationRate)) {
            child.genes[g] = processors[rng.index(processors.size())];
          }
        }
        child.fitness = evaluate(child.genes);
        offspring[k] = std::move(child);
      }
    });
    // Steady state (serial): offspring replace the worst individuals.
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    for (std::size_t k = 0; k < offspring.size(); ++k) {
      Individual& slot = population[population.size() - 1 - k];
      if (offspring[k].fitness < slot.fitness) {
        slot = std::move(offspring[k]);
      }
    }
  }

  const Individual& best = *std::min_element(
      population.begin(), population.end(),
      [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
      });
  return schedule_assignment(graph, topology, best.genes, name());
}

}  // namespace edgesched::sched
