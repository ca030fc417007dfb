// Ablation: does scheduling a ready task's incoming edges by decreasing
// cost (§4.2) matter, for both OIHSA and BBSA?
#include "ablation_common.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using namespace edgesched::sched;

  AlgorithmSpec o_pred = oihsa_spec();
  o_pred.edge_order = EdgeOrderPolicyKind::kPredecessorOrder;
  AlgorithmSpec b_pred = bbsa_spec();
  b_pred.edge_order = EdgeOrderPolicyKind::kPredecessorOrder;

  std::vector<edgesched::bench::Variant> variants;
  variants.push_back(spec_variant("OIHSA, predecessor order", o_pred));
  variants.push_back(spec_variant("OIHSA, decreasing cost", oihsa_spec()));
  variants.push_back(spec_variant("BBSA, predecessor order", b_pred));
  variants.push_back(spec_variant("BBSA, decreasing cost", bbsa_spec()));
  edgesched::bench::run_ablation("edge scheduling order",
                                 std::move(variants), false,
                                 &telemetry.report());
  return 0;
}
