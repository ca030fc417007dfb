#include "sched/network_model.hpp"

namespace edgesched::sched {

namespace {

class ExclusiveNetworkModel final : public NetworkStateModel {
 public:
  ExclusiveNetworkModel(const net::Topology& topology, std::size_t num_edges,
                        double hop_delay, bool refresh_edge_records)
      : state_(topology, num_edges, hop_delay),
        refresh_edge_records_(refresh_edge_records) {}

  [[nodiscard]] net::ProbeResult probe(net::LinkId link,
                                       const net::ProbeState& state,
                                       double cost) const override {
    const timeline::Placement placement = state_.probe_link(
        link, state.earliest_start, state.min_finish, cost);
    return net::ProbeResult{placement.start, placement.finish};
  }

  [[nodiscard]] ExclusiveNetworkState* exclusive_state() noexcept override {
    return &state_;
  }

  void finalize(const dag::TaskGraph& graph, Schedule& out) override {
    if (!refresh_edge_records_) {
      return;
    }
    // Deferral may have moved earlier edges' occupations after their
    // communications were recorded; refresh from the final records.
    for (dag::EdgeId e : graph.all_edges()) {
      const EdgeRecord& record = state_.record(e);
      if (record.scheduled()) {
        EdgeCommunication comm;
        comm.kind = EdgeCommunication::Kind::kExclusive;
        comm.route = record.route;
        comm.occupations = record.occupations;
        comm.arrival = record.occupations.back().finish;
        out.set_communication(e, std::move(comm));
      }
    }
  }

 private:
  ExclusiveNetworkState state_;
  bool refresh_edge_records_;
};

class BandwidthNetworkModel final : public NetworkStateModel {
 public:
  BandwidthNetworkModel(const net::Topology& topology, double hop_delay)
      : state_(topology, hop_delay) {}

  [[nodiscard]] net::ProbeResult probe(net::LinkId link,
                                       const net::ProbeState& state,
                                       double cost) const override {
    // Relaxation key: earliest finish of the full volume using the link's
    // remaining bandwidth (the bandwidth analogue of §4.3).
    return state_.probe(link, state.earliest_start, state.min_finish, cost);
  }

  [[nodiscard]] BandwidthNetworkState* bandwidth_state() noexcept override {
    return &state_;
  }

 private:
  BandwidthNetworkState state_;
};

}  // namespace

std::unique_ptr<NetworkStateModel> make_network_model(
    const AlgorithmSpec& spec, const net::Topology& topology,
    std::size_t num_edges) {
  if (spec.insertion == InsertionPolicyKind::kFluidBandwidth) {
    return std::make_unique<BandwidthNetworkModel>(topology, spec.hop_delay);
  }
  // Only optimal insertion's deferral moves occupations after their
  // edge's communication was recorded; first-fit and packetized records
  // are final when written.
  return std::make_unique<ExclusiveNetworkModel>(
      topology, num_edges, spec.hop_delay,
      spec.insertion == InsertionPolicyKind::kOptimal);
}

}  // namespace edgesched::sched
