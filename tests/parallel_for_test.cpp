// util::static_chunk / util::WorkerTeam unit suite: the deterministic
// partition rule, the fork/join dispatch machinery, and exception
// propagation. The byte-identity these primitives buy the scheduler is
// pinned end-to-end by tests/parallel_engine_property_test.cpp; this
// file checks the primitives in isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/parallel_for.hpp"

namespace edgesched::util {
namespace {

TEST(StaticChunk, PartitionsExactlyAndBalanced) {
  for (std::size_t n : {0u, 1u, 2u, 7u, 16u, 97u, 256u}) {
    for (std::size_t lanes : {1u, 2u, 3u, 4u, 8u, 13u}) {
      std::vector<int> covered(n, 0);
      std::size_t min_size = n + 1;
      std::size_t max_size = 0;
      std::size_t previous_end = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const ChunkRange range = static_chunk(n, lanes, lane);
        ASSERT_LE(range.begin, range.end);
        // Chunks are contiguous and in lane order.
        EXPECT_EQ(range.begin, previous_end);
        previous_end = range.end;
        const std::size_t size = range.end - range.begin;
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
        for (std::size_t i = range.begin; i < range.end; ++i) {
          ASSERT_LT(i, n);
          ++covered[i];
        }
      }
      EXPECT_EQ(previous_end, n) << "n=" << n << " lanes=" << lanes;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(covered[i], 1) << "index " << i << " covered "
                                 << covered[i] << " times";
      }
      if (n > 0) {
        EXPECT_LE(max_size - min_size, 1u)
            << "n=" << n << " lanes=" << lanes;
      }
    }
  }
}

TEST(WorkerTeam, SingleLaneRunsInline) {
  WorkerTeam team(1);
  EXPECT_EQ(team.lanes(), 1u);
  std::vector<std::size_t> seen_lane;
  team.run(5, [&](std::size_t lane, std::size_t begin, std::size_t end) {
    seen_lane.push_back(lane);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(seen_lane, std::vector<std::size_t>{0});
}

TEST(WorkerTeam, ComputesSameResultAsSerialAcrossManyRuns) {
  constexpr std::size_t kItems = 997;
  std::vector<std::uint64_t> want(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    want[i] = i * i + 1;
  }
  WorkerTeam team(4);
  EXPECT_EQ(team.lanes(), 4u);
  std::vector<std::uint64_t> got(kItems, 0);
  // Many dispatches through one team: the generation counter and the
  // spin-then-block join must hold up across reuse.
  for (int round = 0; round < 200; ++round) {
    std::fill(got.begin(), got.end(), 0);
    team.run(kItems,
             [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
               for (std::size_t i = begin; i < end; ++i) {
                 got[i] = i * i + 1;
               }
             });
    ASSERT_EQ(got, want) << "round " << round;
  }
}

TEST(WorkerTeam, EveryLaneParticipates) {
  constexpr std::size_t kLanes = 4;
  WorkerTeam team(kLanes);
  std::vector<std::atomic<int>> hits(kLanes);
  team.run(kLanes * 3, [&](std::size_t lane, std::size_t begin,
                           std::size_t end) {
    EXPECT_EQ(end - begin, 3u);
    hits[lane].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
  }
}

TEST(WorkerTeam, EmptyRangeSkipsDispatch) {
  WorkerTeam team(4);
  std::atomic<int> calls{0};
  team.run(0, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  // n == 0 never dispatches: no chunk, no body call on any lane.
  EXPECT_EQ(calls.load(), 0);
}

TEST(WorkerTeam, RethrowsWorkerExceptionAndStaysUsable) {
  WorkerTeam team(4);
  EXPECT_THROW(
      team.run(16,
               [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   if (i == 13) {
                     throw std::runtime_error("lane failure");
                   }
                 }
               }),
      std::runtime_error);
  // The team must survive a failed run: join happened, state was reset.
  std::atomic<std::uint64_t> sum{0};
  team.run(100, [&](std::size_t /*lane*/, std::size_t begin,
                    std::size_t end) {
    std::uint64_t local = 0;
    for (std::size_t i = begin; i < end; ++i) {
      local += i;
    }
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace edgesched::util
