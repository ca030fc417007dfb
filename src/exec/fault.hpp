// Fault injection plans for the discrete-event executor.
//
// A `FaultPlan` is a time-ordered script of resource failures the
// executor injects while replaying a schedule: processors crash (killing
// the task they were running) and links sever (killing the transfer in
// flight). A fault is either *transient* — the resource heals after
// `repair` time units — or *permanent*. Plans come from two sources:
// an explicit script (tests, what-if studies) or seeded hazard-rate
// sampling over a topology (Poisson arrivals per resource), so a single
// 64-bit seed reproduces an entire failure trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/topology.hpp"

namespace edgesched::exec {

enum class FaultKind { kProcessor, kLink };

/// One scripted resource failure.
struct FaultEvent {
  double time = 0.0;  ///< virtual time of the failure
  FaultKind kind = FaultKind::kProcessor;
  /// NodeId value of a processor (kProcessor) or LinkId value (kLink),
  /// always in the *original* topology's id space.
  std::uint32_t target = 0;
  bool permanent = false;
  /// Downtime of a transient fault; ignored when permanent.
  double repair = 0.0;
};

/// Seeded hazard-rate fault generation: independent Poisson failure
/// arrivals per processor and per link over [0, horizon).
struct HazardConfig {
  double processor_rate = 0.0;  ///< failures per unit time per processor
  double link_rate = 0.0;       ///< failures per unit time per link
  double horizon = 0.0;
  /// Probability a sampled fault is permanent (others are transient).
  double permanent_fraction = 0.0;
  /// Mean exponential repair time of transient faults.
  double mean_repair = 1.0;
  std::uint64_t seed = 1;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Explicit script; events may be given in any order. Checks every
  /// event (finite time >= 0, finite repair >= 0) and sorts once; throws
  /// std::invalid_argument on a malformed event.
  [[nodiscard]] static FaultPlan scripted(std::vector<FaultEvent> events);

  /// Samples a plan from per-resource hazard rates (deterministic in the
  /// config seed; resources are visited in id order).
  [[nodiscard]] static FaultPlan sampled(const net::Topology& topology,
                                         const HazardConfig& config);

  /// All events sorted by (time, kind, target) — the executor's stable
  /// injection order.
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Checks every target against `topology` (processor targets must name
  /// processors, link targets existing links). Throws
  /// std::invalid_argument on the first violation.
  void validate(const net::Topology& topology) const;

 private:
  void sort_events();

  std::vector<FaultEvent> events_;  ///< kept sorted
};

}  // namespace edgesched::exec
