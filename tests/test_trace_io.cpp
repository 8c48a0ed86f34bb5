#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace mca::trace {
namespace {

log_store sample_store() {
  log_store store;
  store.append({100.5, 1, 2, 0.85, 420.25});
  store.append({50.0, 2, 1, 1.0, 300.0});
  store.append({200.0, 1, 3, 0.5, 150.75});
  return store;
}

TEST(TraceIo, WriteEmitsHeaderAndSortedRows) {
  std::ostringstream out;
  EXPECT_EQ(write_csv(sample_store(), out), 3u);
  std::istringstream in{out.str()};
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "timestamp_ms,user,group,battery,rtt_ms");
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, 9), "50.000000");  // chronological order
}

TEST(TraceIo, RoundTripPreservesRecords) {
  std::ostringstream out;
  write_csv(sample_store(), out);
  std::istringstream in{out.str()};
  const auto restored = read_csv(in);
  ASSERT_EQ(restored.size(), 3u);
  const auto records = restored.in_range(0.0, 1e9);
  EXPECT_DOUBLE_EQ(records[0].timestamp, 50.0);
  EXPECT_EQ(records[0].user, 2u);
  EXPECT_EQ(records[1].group, 2u);
  EXPECT_DOUBLE_EQ(records[1].battery_level, 0.85);
  EXPECT_DOUBLE_EQ(records[2].rtt_ms, 150.75);
}

TEST(TraceIo, EmptyStoreRoundTrips) {
  std::ostringstream out;
  EXPECT_EQ(write_csv(log_store{}, out), 0u);
  std::istringstream in{out.str()};
  EXPECT_EQ(read_csv(in).size(), 0u);
}

TEST(TraceIo, MissingHeaderThrows) {
  std::istringstream in{"1,2,3,4,5\n"};
  EXPECT_THROW(read_csv(in), std::invalid_argument);
  std::istringstream empty{""};
  EXPECT_THROW(read_csv(empty), std::invalid_argument);
}

TEST(TraceIo, WrongFieldCountReportsLine) {
  std::istringstream in{
      "timestamp_ms,user,group,battery,rtt_ms\n1,2,3,4\n"};
  try {
    read_csv(in);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
}

TEST(TraceIo, BadNumberReportsField) {
  std::istringstream in{
      "timestamp_ms,user,group,battery,rtt_ms\n1.0,xyz,1,0.5,100\n"};
  try {
    read_csv(in);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("xyz"), std::string::npos);
  }
}

/// Reads `rows` under the header and returns the rejection message, or
/// "" when the rows parse.
std::string rejection(const std::string& rows) {
  std::istringstream in{"timestamp_ms,user,group,battery,rtt_ms\n" + rows};
  try {
    read_csv(in);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, NonFiniteTimestampIsRejected) {
  // std::stod reads these; a NaN key would break the store's sort.
  for (const char* bad : {"nan", "inf", "-inf"}) {
    const std::string error =
        rejection("1.0,1,1,0.5,100\n" + std::string{bad} + ",1,1,0.5,100\n");
    EXPECT_NE(error.find("line 3"), std::string::npos) << bad;
    EXPECT_NE(error.find("timestamp"), std::string::npos) << bad;
  }
}

TEST(TraceIo, NonFiniteRttIsRejected) {
  for (const char* bad : {"nan", "inf", "-inf"}) {
    const std::string error = rejection("1.0,1,1,0.5," + std::string{bad});
    EXPECT_NE(error.find("line 2"), std::string::npos) << bad;
    EXPECT_NE(error.find("RTT"), std::string::npos) << bad;
  }
}

TEST(TraceIo, NegativeRttIsRejected) {
  const std::string error = rejection("1.0,1,1,0.5,0\n2.0,1,1,0.5,-0.5\n");
  EXPECT_NE(error.find("line 3"), std::string::npos);
  EXPECT_NE(error.find("RTT"), std::string::npos);
}

TEST(TraceIo, BatteryOutsideUnitIntervalIsRejected) {
  for (const char* bad : {"7.5", "-0.1", "1.0001", "nan"}) {
    const std::string error = rejection("1.0,1,1," + std::string{bad} + ",100");
    EXPECT_NE(error.find("line 2"), std::string::npos) << bad;
    EXPECT_NE(error.find("battery"), std::string::npos) << bad;
  }
  // Both ends of the range are valid charge levels.
  EXPECT_EQ(rejection("1.0,1,1,0,100\n2.0,1,1,1,100\n"), "");
}

TEST(TraceIo, BlankLinesSkipped) {
  std::istringstream in{
      "timestamp_ms,user,group,battery,rtt_ms\n\n1.0,1,1,0.5,100\n\n"};
  EXPECT_EQ(read_csv(in).size(), 1u);
}

TEST(TraceIo, SlotsSurviveRoundTrip) {
  log_store store;
  for (int i = 0; i < 50; ++i) {
    store.append({i * 100.0, static_cast<user_id>(i % 7),
                  static_cast<group_id>(i % 3), 1.0, 200.0});
  }
  std::ostringstream out;
  write_csv(store, out);
  std::istringstream in{out.str()};
  const auto restored = read_csv(in);
  const auto original_slots = store.build_slots(1'000.0, 3);
  const auto restored_slots = restored.build_slots(1'000.0, 3);
  ASSERT_EQ(original_slots.size(), restored_slots.size());
  for (std::size_t i = 0; i < original_slots.size(); ++i) {
    EXPECT_EQ(slot_distance(original_slots[i], restored_slots[i]), 0u);
  }
}

}  // namespace
}  // namespace mca::trace
