#include "core/acceleration.h"

#include <gtest/gtest.h>

namespace mca::core {
namespace {

acceleration_map three_level_map() {
  acceleration_group g0;
  g0.id = 0;
  g0.type_names = {"t2.micro"};
  acceleration_group g1;
  g1.id = 1;
  g1.type_names = {"t2.nano", "t2.small"};
  g1.capacity_users = 10.0;
  acceleration_group g2;
  g2.id = 2;
  g2.type_names = {"t2.large"};
  g2.capacity_users = 40.0;
  return acceleration_map{{g0, g1, g2}};
}

TEST(AccelerationMap, GroupLookupById) {
  const auto map = three_level_map();
  EXPECT_EQ(map.group_count(), 3u);
  EXPECT_EQ(map.groups()[1].type_names.size(), 2u);
  EXPECT_EQ(map.groups()[2].capacity_users, 40.0);
}

TEST(AccelerationMap, GroupOfTypeName) {
  const auto map = three_level_map();
  EXPECT_EQ(map.group_of("t2.micro"), 0u);
  EXPECT_EQ(map.group_of("t2.nano"), 1u);
  EXPECT_EQ(map.group_of("t2.small"), 1u);
  EXPECT_EQ(map.group_of("t2.large"), 2u);
  EXPECT_THROW(map.group_of("m4.10xlarge"), std::out_of_range);
}

TEST(AccelerationMap, MaxGroupIsHighestId) {
  EXPECT_EQ(three_level_map().max_group(), 2u);
}

TEST(AccelerationMap, RejectsNonDenseIds) {
  acceleration_group g0;
  g0.id = 0;
  acceleration_group g2;
  g2.id = 2;  // gap: no group 1
  EXPECT_THROW(acceleration_map({g0, g2}), std::invalid_argument);
}

TEST(AccelerationMap, EmptyMapMaxGroupThrows) {
  acceleration_map map{{}};
  EXPECT_THROW(map.max_group(), std::logic_error);
}

}  // namespace
}  // namespace mca::core
