// Classic contention-free list scheduler (the idealised model of §2.2).
//
// Communication between distinct processors costs c(e)/s where s is the
// direct link's speed when one exists, otherwise the topology's mean link
// speed; messages never queue and links are never booked. This is the
// model the paper argues against — the baseline for the contention
// ablation, where its schedule is replayed under real contention.
#pragma once

#include "sched/priorities.hpp"
#include "sched/scheduler.hpp"

namespace edgesched::sched {

class ClassicScheduler final : public Scheduler {
 public:
  struct Options {
    PriorityScheme priority = PriorityScheme::kBottomLevel;
    /// Task placement policy. §2.1 defines t_s(n, P) = max(t_dr, t_f(P))
    /// with t_f(P) "the current finish time of P"; we read processor
    /// booking with Sinnen's insertion technique (tasks may fill idle
    /// gaps), which reproduces the paper's reported magnitudes — the
    /// literal append reading collapses them (see DESIGN.md §6 and the
    /// model ablation bench). False switches to pure append.
    bool task_insertion = true;
  };

  ClassicScheduler() = default;
  explicit ClassicScheduler(const Options& options) : options_(options) {}

  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;
  [[nodiscard]] std::string name() const override { return "CLASSIC"; }

 private:
  Options options_;
};

}  // namespace edgesched::sched
