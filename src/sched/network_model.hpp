// Network-state seam of the list-scheduling engine.
//
// The engine's routing and insertion policies talk to the network through
// this interface instead of a concrete state class, so one Dijkstra
// relaxation loop serves both contention models: `probe` answers the §4.3
// relaxation for exclusive links (basic-insertion placement) or bandwidth
// links (fluid finish of the full volume). Policies that are specific to
// one model (first-fit commit, tentative rollback, fluid transfer)
// downcast through `exclusive_state` / `bandwidth_state`; the engine
// constructs the matching model from the spec's insertion kind, so the
// downcast cannot fail at runtime.
#pragma once

#include <memory>

#include "net/routing.hpp"
#include "sched/algorithm_spec.hpp"
#include "sched/network_state.hpp"

namespace edgesched::sched {

class NetworkStateModel {
 public:
  NetworkStateModel() = default;
  virtual ~NetworkStateModel() = default;

  NetworkStateModel(const NetworkStateModel&) = delete;
  NetworkStateModel& operator=(const NetworkStateModel&) = delete;

  /// §4.3 relaxation probe: the tentative, uncommitted placement of
  /// `cost` units on `link` given the state arriving at its source.
  [[nodiscard]] virtual net::ProbeResult probe(net::LinkId link,
                                               const net::ProbeState& state,
                                               double cost) const = 0;

  /// The exclusive-link state, or nullptr for bandwidth models.
  [[nodiscard]] virtual ExclusiveNetworkState* exclusive_state() noexcept {
    return nullptr;
  }
  /// The bandwidth-sharing state, or nullptr for exclusive models.
  [[nodiscard]] virtual BandwidthNetworkState* bandwidth_state() noexcept {
    return nullptr;
  }

  /// End-of-run hook. The exclusive model under optimal insertion
  /// rewrites every routed edge's communication from the final link
  /// records here (OIHSA: deferral may have moved occupations after the
  /// edge's communication was recorded).
  virtual void finalize(const dag::TaskGraph& /*graph*/,
                        Schedule& /*out*/) {}
};

/// The model matching `spec.insertion`: bandwidth timelines for
/// kFluidBandwidth, exclusive link timelines otherwise.
[[nodiscard]] std::unique_ptr<NetworkStateModel> make_network_model(
    const AlgorithmSpec& spec, const net::Topology& topology,
    std::size_t num_edges);

}  // namespace edgesched::sched
