// Ablation: the scheduling-model readings DESIGN.md §6 documents.
//
//   * task placement: insertion (default reading of §2.1) vs literal
//     append t_s = max(t_dr, t_f(P));
//   * communication departure: at the task's ready moment (§4.1 dynamic
//     model, default) vs eagerly at each source's finish;
//   * BA processor selection: communication-blind EFT (the paper's
//     description of BA, default) vs Sinnen's full tentative evaluation.
#include "ablation_common.hpp"

int main(int argc, char** argv) {
  edgesched::bench::TelemetryScope telemetry("", &argc, argv);
  using edgesched::bench::spec_variant;
  using namespace edgesched::sched;

  {
    AlgorithmSpec append = oihsa_spec();
    append.task_insertion = false;
    std::vector<edgesched::bench::Variant> variants;
    variants.push_back(
        spec_variant("OIHSA, insertion placement", oihsa_spec()));
    variants.push_back(spec_variant("OIHSA, append placement", append));
    edgesched::bench::run_ablation("task placement policy",
                                   std::move(variants), false,
                                   &telemetry.report());
  }
  {
    AlgorithmSpec eager = oihsa_spec();
    eager.eager_communication = true;
    std::vector<edgesched::bench::Variant> variants;
    variants.push_back(
        spec_variant("OIHSA, ready-moment shipping", oihsa_spec()));
    variants.push_back(spec_variant("OIHSA, eager shipping", eager));
    edgesched::bench::run_ablation("communication departure",
                                   std::move(variants), false,
                                   &telemetry.report());
  }
  {
    AlgorithmSpec tentative = ba_spec();
    tentative.selection = SelectionPolicyKind::kTentativeEft;
    std::vector<edgesched::bench::Variant> variants;
    variants.push_back(
        spec_variant("BA, comm-blind EFT (paper)", ba_spec()));
    variants.push_back(
        spec_variant("BA, tentative EFT (Sinnen)", tentative));
    variants.push_back(spec_variant("OIHSA", oihsa_spec()));
    edgesched::bench::run_ablation("BA processor selection",
                                   std::move(variants), false,
                                   &telemetry.report());
  }
  return 0;
}
