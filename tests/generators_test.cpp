#include "dag/generators.hpp"

#include <gtest/gtest.h>

#include "dag/properties.hpp"

namespace edgesched::dag {
namespace {

TEST(Chain, Structure) {
  const TaskGraph g = chain(4, 2.0, 3.0);
  EXPECT_EQ(g.num_tasks(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());
}

TEST(Chain, SingleTask) {
  const TaskGraph g = chain(1);
  EXPECT_EQ(g.num_tasks(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Fork, Structure) {
  const TaskGraph g = fork(5, 1.0, 1.0);
  EXPECT_EQ(g.num_tasks(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.successors(TaskId(0u)).size(), 5u);
}

TEST(Join, Structure) {
  const TaskGraph g = join(5, 1.0, 1.0);
  EXPECT_EQ(g.num_tasks(), 6u);
  EXPECT_EQ(g.predecessors(TaskId(5u)).size(), 5u);
}

TEST(ForkJoin, Structure) {
  const TaskGraph g = fork_join(4, 1.0, 1.0);
  EXPECT_EQ(g.num_tasks(), 6u);
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  const GraphShape s = shape(g);
  EXPECT_EQ(s.depth, 3u);
  EXPECT_EQ(s.max_width, 4u);
}

TEST(OutTree, Structure) {
  const TaskGraph g = out_tree(3);
  EXPECT_EQ(g.num_tasks(), 7u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 4u);
}

TEST(InTree, Structure) {
  const TaskGraph g = in_tree(3);
  EXPECT_EQ(g.num_tasks(), 7u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.entry_tasks().size(), 4u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
}

TEST(Fft, Structure) {
  const TaskGraph g = fft(8);
  // 4 rows of 8 tasks; each of the 3 stages adds 2 edges per task.
  EXPECT_EQ(g.num_tasks(), 32u);
  EXPECT_EQ(g.num_edges(), 48u);
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());
  EXPECT_EQ(g.entry_tasks().size(), 8u);
  EXPECT_EQ(g.exit_tasks().size(), 8u);
  EXPECT_THROW((void)fft(6), std::invalid_argument);
}

TEST(GaussianElimination, Structure) {
  const TaskGraph g = gaussian_elimination(4);
  // Pivots: 3; updates: 3 + 2 + 1 = 6.
  EXPECT_EQ(g.num_tasks(), 9u);
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_THROW((void)gaussian_elimination(1), std::invalid_argument);
}

TEST(Stencil1d, Structure) {
  const TaskGraph g = stencil_1d(3, 4);
  EXPECT_EQ(g.num_tasks(), 12u);
  // Per step transition: 4 self + 3 left + 3 right = 10 edges; 2 steps.
  EXPECT_EQ(g.num_edges(), 20u);
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());
}

TEST(Diamond, Structure) {
  const TaskGraph g = diamond(3);
  EXPECT_EQ(g.num_tasks(), 9u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
  const GraphShape s = shape(g);
  EXPECT_EQ(s.depth, 5u);  // wavefront of a 3x3 grid
}

TEST(Cholesky, TinyFactorizations) {
  // 1 tile: a single POTRF.
  EXPECT_EQ(cholesky(1).num_tasks(), 1u);
  EXPECT_EQ(cholesky(1).num_edges(), 0u);
  // 2 tiles: POTRF(0), TRSM(1,0), SYRK(1,1,0), POTRF(1).
  const TaskGraph g = cholesky(2);
  EXPECT_EQ(g.num_tasks(), 4u);
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());
  EXPECT_EQ(g.entry_tasks().size(), 1u);
  EXPECT_EQ(g.exit_tasks().size(), 1u);
}

TEST(Cholesky, KernelCountsMatchTheFormula) {
  // T tiles: T potrf, T(T-1)/2 trsm, T(T-1)/2 syrk, T(T-1)(T-2)/6 gemm.
  for (std::size_t t : {3u, 4u, 6u}) {
    const TaskGraph g = cholesky(t);
    const std::size_t expected =
        t + t * (t - 1) / 2 + t * (t - 1) / 2 + t * (t - 1) * (t - 2) / 6;
    EXPECT_EQ(g.num_tasks(), expected) << t;
    EXPECT_EQ(g.topological_order().size(), g.num_tasks());
  }
}

TEST(Cholesky, CriticalPathGrowsLinearly) {
  // The potrf->trsm->syrk->potrf spine makes the critical path Θ(tiles).
  const double cp4 = critical_path_length(cholesky(4));
  const double cp8 = critical_path_length(cholesky(8));
  EXPECT_GT(cp8, cp4 * 1.5);
  EXPECT_THROW((void)cholesky(0), std::invalid_argument);
}

class RandomLayeredTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLayeredTest, StructuralInvariants) {
  Rng rng(GetParam());
  LayeredDagParams params;
  params.num_tasks = 80;
  const TaskGraph g = random_layered(params, rng);
  EXPECT_EQ(g.num_tasks(), 80u);
  EXPECT_EQ(g.topological_order().size(), g.num_tasks());

  // Connectivity pass guarantees: only layer-0 tasks lack predecessors,
  // only last-layer tasks lack successors.
  const std::vector<std::size_t> levels = precedence_levels(g);
  for (TaskId t : g.all_tasks()) {
    if (g.in_edges(t).empty()) {
      EXPECT_EQ(levels[t.index()], 0u);
    }
  }

  // Costs stay inside the paper's U(1, 1000) ranges.
  for (TaskId t : g.all_tasks()) {
    EXPECT_GE(g.weight(t), 1.0);
    EXPECT_LE(g.weight(t), 1000.0);
  }
  for (EdgeId e : g.all_edges()) {
    EXPECT_GE(g.cost(e), 1.0);
    EXPECT_LE(g.cost(e), 1000.0);
  }
}

TEST_P(RandomLayeredTest, DeterministicForSeed) {
  LayeredDagParams params;
  params.num_tasks = 50;
  Rng rng1(GetParam());
  Rng rng2(GetParam());
  const TaskGraph a = random_layered(params, rng1);
  const TaskGraph b = random_layered(params, rng2);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e : a.all_edges()) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src);
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
    EXPECT_DOUBLE_EQ(a.edge(e).cost, b.edge(e).cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLayeredTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           99999u));

TEST(RandomLayered, WidthFactorControlsShape) {
  LayeredDagParams wide;
  wide.num_tasks = 100;
  wide.width_factor = 3.0;
  LayeredDagParams narrow = wide;
  narrow.width_factor = 0.4;
  Rng rng1(7);
  Rng rng2(7);
  const GraphShape wide_shape = shape(random_layered(wide, rng1));
  const GraphShape narrow_shape = shape(random_layered(narrow, rng2));
  EXPECT_GT(wide_shape.max_width, narrow_shape.max_width);
  EXPECT_LT(wide_shape.depth, narrow_shape.depth);
}

TEST(RandomLayered, RejectsBadParams) {
  Rng rng(1);
  LayeredDagParams params;
  params.num_tasks = 0;
  EXPECT_THROW((void)random_layered(params, rng), std::invalid_argument);
  params.num_tasks = 10;
  params.comp_min = 10.0;
  params.comp_max = 1.0;
  EXPECT_THROW((void)random_layered(params, rng), std::invalid_argument);
}

TEST(Generators, RejectZeroSizes) {
  EXPECT_THROW((void)chain(0), std::invalid_argument);
  EXPECT_THROW((void)fork(0), std::invalid_argument);
  EXPECT_THROW((void)join(0), std::invalid_argument);
  EXPECT_THROW((void)fork_join(0), std::invalid_argument);
  EXPECT_THROW((void)out_tree(0), std::invalid_argument);
  EXPECT_THROW((void)in_tree(0), std::invalid_argument);
  EXPECT_THROW((void)stencil_1d(0, 3), std::invalid_argument);
  EXPECT_THROW((void)diamond(0), std::invalid_argument);
}

}  // namespace
}  // namespace edgesched::dag
