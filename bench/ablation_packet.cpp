// Ablation: circuit switching vs store-and-forward packetization — the
// extension §2.2 notes BA lacks. Smaller packets pipeline across
// multi-hop routes but multiply the scheduling work.
#include "ablation_common.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using namespace edgesched::sched;

  std::vector<edgesched::bench::Variant> variants;
  variants.push_back(spec_variant("BA (cut-through circuit)", ba_spec()));
  for (double size : {1e12, 500.0, 250.0, 100.0, 50.0}) {
    AlgorithmSpec spec = packet_ba_spec();
    spec.packet_size = size;
    const std::string label =
        size >= 1e12 ? "PACKET-BA, single packet"
                     : "PACKET-BA, size " + std::to_string(
                                                static_cast<int>(size));
    variants.push_back(spec_variant(label, spec));
  }
  edgesched::bench::run_ablation("circuit vs packet switching",
                                 std::move(variants), false,
                                 &telemetry.report());
  return 0;
}
