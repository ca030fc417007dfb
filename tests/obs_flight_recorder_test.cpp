// obs::FlightRecorder: ring bounds, sequence ordering, run-ID stamping,
// postmortem dump shape, and the EDGESCHED_POSTMORTEM_DIR gate.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/run_context.hpp"

namespace edgesched::obs {
namespace {

/// Every test shares the process-global recorder: start from a clean
/// default state and leave one behind.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight_recorder().set_enabled(true);
    flight_recorder().clear();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(FlightRecorderTest, RecordsAndDumpsInSequenceOrder) {
  flight_recorder().record(FlightEventKind::kSchedule, "test/a", 1.0, 10,
                           2.5);
  flight_recorder().record(FlightEventKind::kFault, "test/b", 2.0, 3, 0.0);
  const JsonValue dump = flight_recorder().dump_json("unit_test");
  EXPECT_EQ(dump.at("type").as_string(), "postmortem");
  EXPECT_EQ(dump.at("reason").as_string(), "unit_test");
  const JsonValue& entries = dump.at("entries");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries.at(0).at("seq").as_number(), 1.0);
  EXPECT_EQ(entries.at(0).at("kind").as_string(), "schedule");
  EXPECT_EQ(entries.at(0).at("label").as_string(), "test/a");
  EXPECT_DOUBLE_EQ(entries.at(0).at("a").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(entries.at(0).at("b").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(entries.at(1).at("seq").as_number(), 2.0);
  EXPECT_EQ(entries.at(1).at("kind").as_string(), "fault");
}

TEST_F(FlightRecorderTest, RingKeepsOnlyTheLastCapacityEntries) {
  constexpr std::size_t kCapacity = FlightRecorder::kCapacity;
  constexpr std::size_t kOverflow = 6;
  for (std::size_t i = 0; i < kCapacity + kOverflow; ++i) {
    flight_recorder().record(FlightEventKind::kNote, "test/overflow",
                             static_cast<double>(i));
  }
  EXPECT_EQ(flight_recorder().size(), kCapacity);
  const JsonValue dump = flight_recorder().dump_json("overflow");
  const JsonValue& entries = dump.at("entries");
  ASSERT_EQ(entries.size(), kCapacity);
  // Oldest entries evicted: seqs 7..kCapacity+6 survive.
  EXPECT_DOUBLE_EQ(entries.at(0).at("seq").as_number(), kOverflow + 1.0);
  EXPECT_DOUBLE_EQ(entries.at(kCapacity - 1).at("seq").as_number(),
                   static_cast<double>(kCapacity + kOverflow));
}

TEST_F(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  {
    const ScopedFlightRecorderPause pause;
    EXPECT_FALSE(flight_recorder().enabled());
    flight_recorder().record(FlightEventKind::kNote, "test/ignored");
  }
  EXPECT_TRUE(flight_recorder().enabled());
  EXPECT_EQ(flight_recorder().size(), 0u);
}

TEST_F(FlightRecorderTest, StampsTheCurrentRunId) {
  flight_recorder().record(FlightEventKind::kNote, "test/outside");
  const std::uint64_t run = mint_run_id();
  {
    const ScopedRunId scope(run);
    flight_recorder().record(FlightEventKind::kNote, "test/inside");
  }
  const JsonValue dump = flight_recorder().dump_json("runs");
  const JsonValue& entries = dump.at("entries");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_DOUBLE_EQ(entries.at(0).at("run").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(entries.at(1).at("run").as_number(),
                   static_cast<double>(run));
}

TEST_F(FlightRecorderTest, ClearResetsTheSequenceCounter) {
  flight_recorder().record(FlightEventKind::kNote, "test/one");
  flight_recorder().clear();
  EXPECT_EQ(flight_recorder().size(), 0u);
  flight_recorder().record(FlightEventKind::kNote, "test/two");
  const JsonValue dump = flight_recorder().dump_json("clear");
  ASSERT_EQ(dump.at("entries").size(), 1u);
  EXPECT_DOUBLE_EQ(dump.at("entries").at(0).at("seq").as_number(), 1.0);
}

TEST_F(FlightRecorderTest, MergesRingsAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        flight_recorder().record(FlightEventKind::kNote, "test/thread");
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const JsonValue dump = flight_recorder().dump_json("threads");
  const JsonValue& entries = dump.at("entries");
  ASSERT_EQ(entries.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // The merged view is strictly ordered by the global sequence.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries.at(i - 1).at("seq").as_number(),
              entries.at(i).at("seq").as_number());
  }
}

TEST_F(FlightRecorderTest, WritePostmortemIsParsableJson) {
  flight_recorder().record(FlightEventKind::kExecEnd, "exec/execute", 42.0,
                           1, 42.0);
  std::ostringstream os;
  flight_recorder().write_postmortem(os, "on_demand");
  const JsonValue parsed = JsonValue::parse(os.str());
  EXPECT_EQ(parsed.at("reason").as_string(), "on_demand");
  EXPECT_EQ(parsed.at("entries").size(), 1u);
}

TEST_F(FlightRecorderTest, MaybeWritePostmortemIsGatedOnTheEnvVar) {
  // Unset: no file, empty path.
  ::unsetenv("EDGESCHED_POSTMORTEM_DIR");
  EXPECT_EQ(flight_recorder().maybe_write_postmortem("gate_test"), "");

  // Set: the dump lands in the directory with a slugged filename.
  const std::string dir = ::testing::TempDir();
  ::setenv("EDGESCHED_POSTMORTEM_DIR", dir.c_str(), 1);
  flight_recorder().record(FlightEventKind::kAbort, "test/gate");
  const std::string path =
      flight_recorder().maybe_write_postmortem("gate test!");
  ::unsetenv("EDGESCHED_POSTMORTEM_DIR");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("postmortem_gate_test_.json"), std::string::npos)
      << path;
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue parsed = JsonValue::parse(buffer.str());
  EXPECT_EQ(parsed.at("reason").as_string(), "gate test!");
}

TEST(FlightEventKindTest, NamesAreStable) {
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kSchedule),
               "schedule");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kExecStart),
               "exec_start");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kFault), "fault");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kRecovery),
               "recovery");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kCache), "cache");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kNote), "note");
}

}  // namespace
}  // namespace edgesched::obs
