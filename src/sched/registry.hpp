// Central algorithm registry.
//
// One table of every scheduler the toolkit can instantiate by name,
// replacing the string-to-scheduler dispatch that used to be copied in
// the CLI, the comparison example and the service layer. Engine-backed
// entries (BA, OIHSA, BBSA, PACKET-BA) are nothing but their preset
// `AlgorithmSpec` (algorithm_spec.hpp), instantiated as a `SpecScheduler`;
// callers derive novel policy combinations from the same presets.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/algorithm_spec.hpp"
#include "sched/scheduler.hpp"

namespace edgesched::sched {

/// One algorithm instantiable by name.
struct AlgorithmEntry {
  std::string key;                   ///< canonical lower-case lookup key
  std::vector<std::string> aliases;  ///< accepted alternative spellings
  std::string display;               ///< Scheduler::name() of the default
  std::string summary;               ///< one-liner for listings
  /// Engine-backed entries: the preset policy bundle. Null for
  /// schedulers that do not run on the list-scheduling engine (the
  /// idealised classic model and the search-based GA/SA).
  AlgorithmSpec (*spec)() = nullptr;
  /// Instance factory of the entries without a spec; null otherwise.
  std::function<std::unique_ptr<Scheduler>()> factory;

  [[nodiscard]] bool engine_backed() const noexcept {
    return spec != nullptr;
  }

  /// A default-configured instance: a `SpecScheduler` over `spec()` for
  /// engine-backed entries, `factory()` for the rest.
  [[nodiscard]] std::unique_ptr<Scheduler> make() const;
};

/// The registry, in display order. Built once, immutable afterwards.
[[nodiscard]] const std::vector<AlgorithmEntry>& algorithm_registry();

/// Case-insensitive lookup by key or alias; nullptr when unknown.
[[nodiscard]] const AlgorithmEntry* find_algorithm(std::string_view name);

/// Instantiates the named algorithm with default options. Throws
/// std::invalid_argument naming the known keys when the name is unknown.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    std::string_view name);

/// Human-readable registry listing (--list-algorithms): one line per
/// entry with key, aliases, summary, and the policy bundle for
/// engine-backed algorithms.
[[nodiscard]] std::string algorithm_list();

}  // namespace edgesched::sched
