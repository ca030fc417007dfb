// Ablation: novel policy combinations the engine makes expressible —
// bundles assembled from the presets rather than shipped as named
// algorithms. Baseline is registry BA; the variants graft one
// OIHSA/BBSA policy at a time onto it, so the table reads as "what does
// each policy buy BA on its own?".
#include "ablation_common.hpp"
#include "sched/registry.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using edgesched::bench::Variant;
  using namespace edgesched::sched;

  const AlgorithmSpec ba = ba_spec();

  // BA with OIHSA's workload-aware router swapped in.
  AlgorithmSpec ba_probe = ba;
  ba_probe.name = "BA-PROBE";
  ba_probe.routing = RoutingPolicyKind::kProbeDijkstra;

  // BA with OIHSA's cost-descending in-edge order.
  AlgorithmSpec ba_cost = ba;
  ba_cost.name = "BA-COSTORDER";
  ba_cost.edge_order = EdgeOrderPolicyKind::kByCostDescending;

  // BA upgraded to tentative (schedule-and-roll-back) selection.
  AlgorithmSpec ba_tent = ba;
  ba_tent.name = "BA-TENTATIVE";
  ba_tent.selection = SelectionPolicyKind::kTentativeEft;

  std::vector<Variant> variants;
  variants.push_back(
      Variant{"BA (registry)", find_algorithm("ba")->make()});
  variants.push_back(spec_variant("BA + probe routing", ba_probe));
  variants.push_back(spec_variant("BA + cost-desc edges", ba_cost));
  variants.push_back(spec_variant("BA + tentative EFT", ba_tent));
  variants.push_back(
      Variant{"OIHSA (registry)", find_algorithm("oihsa")->make()});
  edgesched::bench::run_ablation("novel policy bundles vs presets",
                                 std::move(variants), false,
                                 &telemetry.report());
  return 0;
}
