#include "sched/algorithm_spec.hpp"

#include <cmath>
#include <stdexcept>

#include "util/hash.hpp"

namespace edgesched::sched {

namespace {

const char* selection_label(SelectionPolicyKind kind) {
  switch (kind) {
    case SelectionPolicyKind::kBlindEft:
      return "blind-eft";
    case SelectionPolicyKind::kTentativeEft:
      return "tentative-eft";
    case SelectionPolicyKind::kMlsEstimate:
      return "mls-estimate";
  }
  return "?";
}

const char* edge_order_label(EdgeOrderPolicyKind kind) {
  switch (kind) {
    case EdgeOrderPolicyKind::kPredecessorOrder:
      return "predecessor";
    case EdgeOrderPolicyKind::kByCostDescending:
      return "cost-desc";
  }
  return "?";
}

const char* routing_label(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::kBfsMinimal:
      return "bfs-minimal";
    case RoutingPolicyKind::kProbeDijkstra:
      return "probe-dijkstra";
  }
  return "?";
}

const char* insertion_label(InsertionPolicyKind kind) {
  switch (kind) {
    case InsertionPolicyKind::kFirstFit:
      return "first-fit";
    case InsertionPolicyKind::kOptimal:
      return "optimal";
    case InsertionPolicyKind::kPacketized:
      return "packetized";
    case InsertionPolicyKind::kFluidBandwidth:
      return "fluid-bandwidth";
  }
  return "?";
}

}  // namespace

std::uint64_t AlgorithmSpec::fingerprint() const noexcept {
  Fingerprint fp;
  fp.mix(std::string_view("edgesched.AlgorithmSpec.v1"));
  fp.mix(std::string_view(name));
  fp.mix(static_cast<std::uint64_t>(priority));
  fp.mix(static_cast<std::uint64_t>(selection));
  fp.mix(static_cast<std::uint64_t>(edge_order));
  fp.mix(static_cast<std::uint64_t>(routing));
  fp.mix(static_cast<std::uint64_t>(insertion));
  fp.mix(packet_size);
  fp.mix(static_cast<std::uint64_t>(eager_communication));
  fp.mix(static_cast<std::uint64_t>(task_insertion));
  return fp.value();
}

void AlgorithmSpec::validate() const {
  if (name.empty()) {
    throw std::invalid_argument("AlgorithmSpec: name must be non-empty");
  }
  if (selection == SelectionPolicyKind::kTentativeEft &&
      insertion != InsertionPolicyKind::kFirstFit) {
    throw std::invalid_argument(
        "AlgorithmSpec: tentative-EFT selection requires first-fit "
        "insertion (the only commit with a clean rollback)");
  }
  // Written so NaN fails too: every comparison with NaN is false.
  if (insertion == InsertionPolicyKind::kPacketized &&
      !(std::isfinite(packet_size) && packet_size > 0.0)) {
    throw std::invalid_argument(
        "AlgorithmSpec: packet_size must be finite and > 0");
  }
}

std::string AlgorithmSpec::describe() const {
  std::string text;
  text.reserve(96);
  text += "selection=";
  text += selection_label(selection);
  text += " order=";
  text += edge_order_label(edge_order);
  text += " routing=";
  text += routing_label(routing);
  text += " insertion=";
  text += insertion_label(insertion);
  if (eager_communication) text += " eager";
  if (!task_insertion) text += " append";
  return text;
}

AlgorithmSpec ba_spec() {
  AlgorithmSpec spec;
  spec.name = "BA";
  spec.selection = SelectionPolicyKind::kBlindEft;
  spec.edge_order = EdgeOrderPolicyKind::kPredecessorOrder;
  spec.routing = RoutingPolicyKind::kBfsMinimal;
  spec.insertion = InsertionPolicyKind::kFirstFit;
  return spec;
}

AlgorithmSpec oihsa_spec() {
  AlgorithmSpec spec;
  spec.name = "OIHSA";
  spec.selection = SelectionPolicyKind::kMlsEstimate;
  spec.edge_order = EdgeOrderPolicyKind::kByCostDescending;
  spec.routing = RoutingPolicyKind::kProbeDijkstra;
  spec.insertion = InsertionPolicyKind::kOptimal;
  return spec;
}

AlgorithmSpec bbsa_spec() {
  AlgorithmSpec spec;
  spec.name = "BBSA";
  spec.selection = SelectionPolicyKind::kMlsEstimate;
  spec.edge_order = EdgeOrderPolicyKind::kByCostDescending;
  spec.routing = RoutingPolicyKind::kProbeDijkstra;
  spec.insertion = InsertionPolicyKind::kFluidBandwidth;
  return spec;
}

AlgorithmSpec packet_ba_spec() {
  AlgorithmSpec spec = ba_spec();
  spec.name = "PACKET-BA";
  spec.insertion = InsertionPolicyKind::kPacketized;
  return spec;
}

}  // namespace edgesched::sched
