#include "trace/log_store.h"

#include <gtest/gtest.h>

#include "util/sim_time.h"

namespace mca::trace {
namespace {

trace_record make_record(double ts, user_id user, group_id group) {
  trace_record r;
  r.timestamp = ts;
  r.user = user;
  r.group = group;
  r.battery_level = 0.8;
  r.rtt_ms = 250.0;
  return r;
}

TEST(LogStore, AppendAndSize) {
  log_store store;
  EXPECT_EQ(store.size(), 0u);
  store.append(make_record(1.0, 1, 0));
  store.append(make_record(2.0, 2, 1));
  EXPECT_EQ(store.size(), 2u);
}

TEST(LogStore, OutOfOrderAppendsGetSorted) {
  log_store store;
  store.append(make_record(30.0, 3, 0));
  store.append(make_record(10.0, 1, 0));
  store.append(make_record(20.0, 2, 0));
  const auto range = store.in_range(0.0, 100.0);
  ASSERT_EQ(range.size(), 3u);
  EXPECT_EQ(range[0].user, 1u);
  EXPECT_EQ(range[1].user, 2u);
  EXPECT_EQ(range[2].user, 3u);
}

TEST(LogStore, RangeQueryIsHalfOpen) {
  log_store store;
  store.append(make_record(10.0, 1, 0));
  store.append(make_record(20.0, 2, 0));
  store.append(make_record(30.0, 3, 0));
  const auto range = store.in_range(10.0, 30.0);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0].user, 1u);
  EXPECT_EQ(range[1].user, 2u);
}

TEST(LogStore, EmptyRange) {
  log_store store;
  store.append(make_record(10.0, 1, 0));
  EXPECT_TRUE(store.in_range(20.0, 30.0).empty());
  EXPECT_TRUE(store.in_range(5.0, 10.0).empty());
}

TEST(LogStore, BuildSlotsGroupsUsersByWindow) {
  log_store store;
  store.append(make_record(100.0, 1, 0));
  store.append(make_record(200.0, 2, 1));
  store.append(make_record(1'100.0, 3, 0));
  const auto slots = store.build_slots(1'000.0, 2);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].users_in(0).size(), 1u);
  EXPECT_EQ(slots[0].users_in(1).size(), 1u);
  EXPECT_EQ(slots[1].users_in(0).size(), 1u);
  EXPECT_EQ(slots[1].users_in(0)[0], 3u);
}

TEST(LogStore, BuildSlotsPreservesEmptyWindows) {
  log_store store;
  store.append(make_record(100.0, 1, 0));
  store.append(make_record(3'500.0, 2, 0));
  const auto slots = store.build_slots(1'000.0, 1);
  ASSERT_EQ(slots.size(), 4u);
  EXPECT_TRUE(slots[1].empty());
  EXPECT_TRUE(slots[2].empty());
  EXPECT_FALSE(slots[3].empty());
}

TEST(LogStore, BuildSlotsDeduplicatesUserPerWindow) {
  log_store store;
  store.append(make_record(10.0, 1, 0));
  store.append(make_record(20.0, 1, 0));
  store.append(make_record(30.0, 1, 0));
  const auto slots = store.build_slots(1'000.0, 1);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].users_in(0).size(), 1u);
}

TEST(LogStore, BuildSlotsRespectsOrigin) {
  log_store store;
  store.append(make_record(500.0, 1, 0));   // before origin: skipped
  store.append(make_record(1'500.0, 2, 0));
  const auto slots = store.build_slots(1'000.0, 1, 1'000.0);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].users_in(0)[0], 2u);
}

TEST(LogStore, BuildSlotsIgnoresOutOfRangeGroups) {
  log_store store;
  store.append(make_record(10.0, 1, 5));  // group beyond requested count
  store.append(make_record(20.0, 2, 0));
  const auto slots = store.build_slots(1'000.0, 2);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].total_users(), 1u);
}

TEST(LogStore, BuildSlotsValidation) {
  log_store store;
  EXPECT_THROW(store.build_slots(0.0, 1), std::invalid_argument);
  EXPECT_THROW(store.build_slots(-5.0, 1), std::invalid_argument);
  EXPECT_THROW(store.build_slots(100.0, 0), std::invalid_argument);
}

TEST(LogStore, RecordFieldsRoundTrip) {
  log_store store;
  trace_record r;
  r.timestamp = 42.0;
  r.user = 7;
  r.group = 2;
  r.battery_level = 0.55;
  r.rtt_ms = 987.0;
  store.append(r);
  const auto& stored = store.records()[0];
  EXPECT_EQ(stored.timestamp, 42.0);
  EXPECT_EQ(stored.user, 7u);
  EXPECT_EQ(stored.group, 2u);
  EXPECT_DOUBLE_EQ(stored.battery_level, 0.55);
  EXPECT_DOUBLE_EQ(stored.rtt_ms, 987.0);
}

}  // namespace
}  // namespace mca::trace
