// Randomized cross-check of OIHSA's optimal insertion against an
// independent brute-force search: for every insertion position, simulate
// the deferral cascade directly (per-slot slack checks instead of the
// accum recurrence) and take the earliest feasible start. probe_optimal
// must match it exactly.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <vector>

#include "timeline/optimal_insertion.hpp"
#include "util/rng.hpp"

namespace edgesched::timeline {
namespace {

/// A timeline whose slots carry their slack, and the same slack by edge
/// for the brute force.
struct Scenario {
  LinkTimeline timeline;
  std::map<dag::EdgeId, double> slack;
};

Scenario random_scenario(Rng& rng) {
  Scenario scenario;
  const std::size_t slots = static_cast<std::size_t>(
      rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < slots; ++i) {
    const double gap = rng.uniform_real(0.0, 3.0);
    const double duration = rng.uniform_real(0.5, 4.0);
    const dag::EdgeId edge(i);
    scenario.timeline.commit(
        scenario.timeline.probe_basic(
            scenario.timeline.last_finish() + gap, 0.0, duration),
        edge);
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    scenario.slack[edge] =
        kind == 0 ? 0.0 : (kind == 1 ? rng.uniform_real(0.0, 2.0)
                                     : rng.uniform_real(2.0, 20.0));
    scenario.timeline.set_deferral(i, scenario.slack[edge]);
  }
  return scenario;
}

/// Independent brute force: earliest feasible start over all insertion
/// positions, simulating the cascade slot by slot.
double brute_force_start(const Scenario& scenario, double t_es,
                         double t_f_min, double duration) {
  const auto& slots = scenario.timeline.slots();
  const std::size_t n = slots.size();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p <= n; ++p) {
    const double gap_start = (p == 0) ? 0.0 : slots[p - 1].finish;
    const double start =
        std::max(std::max(gap_start, t_es), t_f_min - duration);
    double frontier = start + duration;
    bool feasible = true;
    for (std::size_t j = p; j < n && feasible; ++j) {
      if (slots[j].start + 1e-9 >= frontier) {
        break;
      }
      const double delta = frontier - slots[j].start;
      if (delta > scenario.slack.at(slots[j].edge) + 1e-9) {
        feasible = false;
      }
      frontier = slots[j].finish + delta;
    }
    if (feasible) {
      best = std::min(best, start);
    }
  }
  return best;
}

class OptimalInsertionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalInsertionProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const Scenario scenario = random_scenario(rng);
    const double t_es = rng.uniform_real(0.0, 15.0);
    const double duration = rng.uniform_real(0.5, 5.0);
    const double t_f_min =
        rng.bernoulli(0.3) ? t_es + rng.uniform_real(0.0, 8.0) : 0.0;

    const OptimalPlacement got =
        probe_optimal(scenario.timeline, t_es, t_f_min, duration);
    const double expected =
        brute_force_start(scenario, t_es, t_f_min, duration);
    ASSERT_NEAR(got.placement.start, expected, 1e-6)
        << "round " << round << ", " << scenario.timeline.size()
        << " slots, t_es=" << t_es << ", t_f_min=" << t_f_min
        << ", dur=" << duration;

    // Committing must preserve every timeline invariant and respect each
    // displaced slot's slack.
    LinkTimeline copy = scenario.timeline;
    for (const SlotShift& shift : got.shifts) {
      const TimeSlot& old_slot = copy.slots()[shift.position];
      EXPECT_LE(shift.new_start - old_slot.start,
                scenario.slack.at(old_slot.edge) + 1e-6);
    }
    commit_optimal(copy, got, dag::EdgeId(999u));
    copy.check_invariants();
    EXPECT_EQ(copy.size(), scenario.timeline.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalInsertionProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

}  // namespace
}  // namespace edgesched::timeline
