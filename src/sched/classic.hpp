// Classic contention-free list scheduler (the idealised model of §2.2).
//
// Communication between distinct processors costs c(e)/s where s is the
// direct link's speed when one exists, otherwise the topology's mean link
// speed; messages never queue and links are never booked. This is the
// model the paper argues against — the baseline for the contention
// ablation, where its schedule is replayed under real contention.
//
// Tasks are taken in bottom-level order and placed with Sinnen's
// insertion technique (they may fill idle processor gaps), the reading of
// §2.1's t_s(n, P) = max(t_dr, t_f(P)) that reproduces the paper's
// magnitudes (see DESIGN.md §6).
#pragma once

#include "sched/scheduler.hpp"

namespace edgesched::sched {

class ClassicScheduler final : public Scheduler {
 public:
  using Scheduler::schedule;
  [[nodiscard]] Schedule schedule(
      const dag::TaskGraph& graph,
      const PlatformContext& platform) const override;
  [[nodiscard]] std::string name() const override { return "CLASSIC"; }
};

}  // namespace edgesched::sched
