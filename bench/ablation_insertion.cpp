// Ablation: what does optimal insertion with deferral (§4.4) buy over
// first-fit insertion, holding routing and edge priorities fixed?
#include "ablation_common.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using namespace edgesched::sched;

  AlgorithmSpec basic = oihsa_spec();
  basic.insertion = InsertionPolicyKind::kFirstFit;

  std::vector<edgesched::bench::Variant> variants;
  variants.push_back(spec_variant("OIHSA + basic insertion", basic));
  variants.push_back(
      spec_variant("OIHSA + optimal insertion", oihsa_spec()));
  edgesched::bench::run_ablation("first-fit vs optimal insertion",
                                 std::move(variants), false,
                                 &telemetry.report());
  return 0;
}
