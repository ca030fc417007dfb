// Declarative algorithm bundles for the list-scheduling engine.
//
// Every contention-aware list scheduler of the reproduction is the same
// §4 loop — ready-moment computation, processor selection, in-edge
// ordering, route + commit — differing only in which kind it picks at
// each step. An `AlgorithmSpec` names those kinds declaratively; the
// `SpecScheduler` (engine.hpp) switches over them. The four paper
// algorithms are the preset bundles returned by `ba_spec()`,
// `oihsa_spec()`, `bbsa_spec()` and `packet_ba_spec()`:
//
//   bundle     | selection   | edge order | routing        | insertion
//   -----------+-------------+------------+----------------+-----------
//   BA         | blind EFT   | predecessor| minimal BFS    | first-fit
//   OIHSA      | MLS estimate| cost desc  | probe Dijkstra | optimal
//   BBSA       | MLS estimate| cost desc  | probe Dijkstra | fluid bw
//   PACKET-BA  | blind EFT   | predecessor| minimal BFS    | packetized
//
// Any other combination is equally expressible: take a preset, edit its
// fields, and run it through `SpecScheduler` (engine.hpp). The ablation
// benches sweep novel bundles this way (e.g. OIHSA selection + first-fit
// insertion), and the spec's structural `fingerprint` lets the service
// layer cache schedules per bundle, not per display name.
#pragma once

#include <cstdint>
#include <string>

#include "sched/priorities.hpp"

namespace edgesched::sched {

/// §4.1 processor choice.
enum class SelectionPolicyKind {
  /// Communication-blind earliest finish: ready moment + execution time
  /// through the placement policy (BA's paper reading, PACKET-BA).
  kBlindEft,
  /// Tentatively schedule the task with all incoming communications on
  /// every processor, roll the network back, keep the true earliest
  /// finish (Sinnen's original BA). Requires first-fit insertion — it is
  /// the only commit with a clean rollback.
  kTentativeEft,
  /// Static-style estimate over the mean link speed MLS (OIHSA/BBSA):
  /// max(max_j(t_f(n_j) + c(e_ji)/MLS), t_f(P)) + w(n_i)/s(P).
  kMlsEstimate,
};

/// §4.2 order in which a ready task's incoming edges book the network.
enum class EdgeOrderPolicyKind {
  kPredecessorOrder,  ///< the DAG's in-edge order (BA)
  kByCostDescending,  ///< costliest edge books first (OIHSA/BBSA)
};

/// §4.3 route computation.
enum class RoutingPolicyKind {
  kBfsMinimal,     ///< static fewest-hop routes, memoised per (from, to)
  kProbeDijkstra,  ///< workload-aware: relax on tentative per-link finish
};

/// §4.4 / §5: how a routed communication commits into the network state.
/// The kind also selects the network-state model: `kFluidBandwidth` runs
/// on bandwidth-sharing timelines, everything else on exclusive links.
enum class InsertionPolicyKind {
  kFirstFit,        ///< exclusive slots, never displacing (§3)
  kOptimal,         ///< exclusive slots, deferral within slack (§4.4)
  kPacketized,      ///< store-and-forward equal-volume packets (§2.2)
  kFluidBandwidth,  ///< rate profiles under formulas (4)/(5) (§5)
};

/// One declarative algorithm bundle. Value type; two specs with equal
/// fields produce bit-identical schedules on any instance.
struct AlgorithmSpec {
  /// Display name: Schedule::algorithm, decision-log `algorithm` field
  /// and (lower-cased) the span-name prefix.
  std::string name;

  PriorityScheme priority = PriorityScheme::kBottomLevel;
  SelectionPolicyKind selection = SelectionPolicyKind::kBlindEft;

  EdgeOrderPolicyKind edge_order = EdgeOrderPolicyKind::kPredecessorOrder;

  RoutingPolicyKind routing = RoutingPolicyKind::kBfsMinimal;

  InsertionPolicyKind insertion = InsertionPolicyKind::kFirstFit;
  /// kPacketized only: a message of cost c becomes ceil(c/packet_size)
  /// equal-volume packets.
  double packet_size = 250.0;

  /// Dynamic model (§4.1): edges ship at the task's ready moment; true
  /// lets each edge leave at its own source's finish instead.
  bool eager_communication = false;
  /// Task placement: Sinnen's insertion technique (true) vs literal
  /// append t_s = max(t_dr, t_f(P)) (see DESIGN.md §6).
  bool task_insertion = true;

  /// Structural 64-bit fingerprint over every field (including the
  /// name). The service layer keys its schedule cache on this, so two
  /// bundles sharing a display name but differing in any policy cache
  /// independently.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Throws std::invalid_argument for inconsistent bundles: tentative
  /// selection without first-fit insertion, a non-positive or non-finite
  /// packet size.
  void validate() const;

  /// One-line policy summary, e.g.
  /// "selection=mls-estimate order=cost-desc routing=probe-dijkstra
  ///  insertion=optimal" (for --list-algorithms and bench labels).
  [[nodiscard]] std::string describe() const;
};

/// Basic Algorithm (§3), the paper's baseline: communication-blind EFT
/// selection (the paper's §4.1 reading; `kTentativeEft` is Sinnen's
/// stronger original), predecessor-order edges, minimal BFS routes,
/// first-fit insertion.
[[nodiscard]] AlgorithmSpec ba_spec();

/// OIHSA (§4): MLS-estimate selection, costliest edge first,
/// workload-aware probe Dijkstra routing, optimal insertion with deferral.
/// Records communications from the final link records, so switching its
/// insertion to `kFirstFit` (a byte-identical no-op refresh) is the
/// first-fit ablation.
[[nodiscard]] AlgorithmSpec oihsa_spec();

/// BBSA (§5): OIHSA's selection, edge order and routing over fluid
/// bandwidth-sharing links (formulas (4)/(5)).
[[nodiscard]] AlgorithmSpec bbsa_spec();

/// Packetized BA (§2.2): BA's selection and routing, with every message
/// split into ceil(c / packet_size) store-and-forward packets.
[[nodiscard]] AlgorithmSpec packet_ba_spec();

}  // namespace edgesched::sched
