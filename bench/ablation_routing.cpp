// Ablation: what does workload-aware routing (§4.3) buy, holding the rest
// of OIHSA fixed? Baseline is OIHSA with minimal BFS routes.
#include "ablation_common.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using namespace edgesched::sched;

  AlgorithmSpec bfs = oihsa_spec();
  bfs.routing = RoutingPolicyKind::kBfsMinimal;

  std::vector<edgesched::bench::Variant> variants;
  variants.push_back(spec_variant("OIHSA + BFS routing", bfs));
  variants.push_back(
      spec_variant("OIHSA + modified routing", oihsa_spec()));
  edgesched::bench::run_ablation("minimal vs workload-aware routing",
                                 std::move(variants), false,
                                 &telemetry.report());
  return 0;
}
