#include "sched/registry.hpp"

#include <cctype>
#include <stdexcept>

#include "sched/annealing.hpp"
#include "sched/classic.hpp"
#include "sched/engine.hpp"
#include "sched/genetic.hpp"

namespace edgesched::sched {

namespace {

std::string to_lower(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return lower;
}

std::vector<AlgorithmEntry> build_registry() {
  std::vector<AlgorithmEntry> entries;

  entries.push_back(AlgorithmEntry{
      "ba",
      {},
      "BA",
      "Basic Algorithm (§3): contention-aware baseline, minimal BFS "
      "routes, first-fit insertion",
      ba_spec,
      nullptr});

  entries.push_back(AlgorithmEntry{
      "oihsa",
      {},
      "OIHSA",
      "Optimal Insertion Hybrid Scheduling Algorithm (§4): MLS estimate "
      "selection, cost-ordered edges, probe routing, optimal insertion",
      oihsa_spec,
      nullptr});

  entries.push_back(AlgorithmEntry{
      "bbsa",
      {},
      "BBSA",
      "Bandwidth-Based Scheduling Algorithm (§5): OIHSA's selection and "
      "routing over fluid bandwidth-sharing links",
      bbsa_spec,
      nullptr});

  entries.push_back(AlgorithmEntry{
      "packet-ba",
      {"packet"},
      "PACKET-BA",
      "Packetized BA (§2.2): store-and-forward equal-volume packets on "
      "exclusive links",
      packet_ba_spec,
      nullptr});

  entries.push_back(AlgorithmEntry{
      "classic",
      {},
      "CLASSIC",
      "Idealised contention-free list scheduler (§2.2) — the model the "
      "paper argues against",
      nullptr,
      [] { return std::make_unique<ClassicScheduler>(); }});

  entries.push_back(AlgorithmEntry{
      "ga",
      {},
      "GA",
      "Genetic algorithm over task-processor assignments, fitness under "
      "real contention",
      nullptr,
      [] { return std::make_unique<GeneticScheduler>(); }});

  entries.push_back(AlgorithmEntry{
      "sa",
      {},
      "SA",
      "Simulated annealing over task-processor assignments, fitness "
      "under real contention",
      nullptr,
      [] { return std::make_unique<AnnealingScheduler>(); }});

  return entries;
}

}  // namespace

std::unique_ptr<Scheduler> AlgorithmEntry::make() const {
  if (spec != nullptr) {
    return std::make_unique<SpecScheduler>(spec());
  }
  return factory();
}

const std::vector<AlgorithmEntry>& algorithm_registry() {
  static const std::vector<AlgorithmEntry> registry = build_registry();
  return registry;
}

const AlgorithmEntry* find_algorithm(std::string_view name) {
  const std::string lower = to_lower(name);
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    if (entry.key == lower) {
      return &entry;
    }
    for (const std::string& alias : entry.aliases) {
      if (alias == lower) {
        return &entry;
      }
    }
  }
  return nullptr;
}

std::unique_ptr<Scheduler> make_scheduler(std::string_view name) {
  if (const AlgorithmEntry* entry = find_algorithm(name)) {
    return entry->make();
  }
  std::string known;
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    if (!known.empty()) {
      known += ", ";
    }
    known += entry.key;
  }
  throw std::invalid_argument("unknown algorithm \"" + std::string(name) +
                              "\" (known: " + known + ")");
}

std::string algorithm_list() {
  std::string text;
  for (const AlgorithmEntry& entry : algorithm_registry()) {
    text += entry.key;
    for (const std::string& alias : entry.aliases) {
      text += " | ";
      text += alias;
    }
    text += "\n    ";
    text += entry.summary;
    text += "\n";
    if (entry.engine_backed()) {
      text += "    engine bundle: ";
      text += entry.spec().describe();
      text += "\n";
    }
  }
  return text;
}

}  // namespace edgesched::sched
