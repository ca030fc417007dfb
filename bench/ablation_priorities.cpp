// Ablation: task priority schemes. The paper fixes bottom level (§2.1) as
// the static priority; this bench measures what the choice is worth for
// OIHSA against the common alternatives.
#include "ablation_common.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using namespace edgesched::sched;

  AlgorithmSpec bl_comp = oihsa_spec();
  bl_comp.priority = PriorityScheme::kBottomLevelComputationOnly;
  AlgorithmSpec tlbl = oihsa_spec();
  tlbl.priority = PriorityScheme::kTopLevelPlusBottomLevel;

  std::vector<edgesched::bench::Variant> variants;
  variants.push_back(spec_variant("OIHSA, bl (paper)", oihsa_spec()));
  variants.push_back(spec_variant("OIHSA, bl computation-only", bl_comp));
  variants.push_back(spec_variant("OIHSA, tl + bl", tlbl));
  edgesched::bench::run_ablation("task priority scheme",
                                 std::move(variants), false,
                                 &telemetry.report());
  return 0;
}
