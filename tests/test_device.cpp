#include "client/device.h"

#include <gtest/gtest.h>

namespace mca::client {
namespace {

TEST(DeviceProfile, ClassesOrderedBySpeed) {
  EXPECT_LT(profile_for(device_class::wearable).local_speed_wu_per_ms,
            profile_for(device_class::budget).local_speed_wu_per_ms);
  EXPECT_LT(profile_for(device_class::budget).local_speed_wu_per_ms,
            profile_for(device_class::midrange).local_speed_wu_per_ms);
  EXPECT_LT(profile_for(device_class::midrange).local_speed_wu_per_ms,
            profile_for(device_class::flagship).local_speed_wu_per_ms);
}

TEST(DeviceProfile, WeakerHardwareBurnsMoreEnergyPerUnit) {
  EXPECT_GT(profile_for(device_class::wearable).cpu_drain_per_wu,
            profile_for(device_class::flagship).cpu_drain_per_wu);
}

TEST(DeviceProfile, Names) {
  EXPECT_STREQ(to_string(device_class::wearable), "wearable");
  EXPECT_STREQ(to_string(device_class::budget), "budget");
  EXPECT_STREQ(to_string(device_class::midrange), "midrange");
  EXPECT_STREQ(to_string(device_class::flagship), "flagship");
}

TEST(DeviceProfile, LocalExecutionScalesWithSpeed) {
  const device_profile wearable = profile_for(device_class::wearable);
  const device_profile flagship = profile_for(device_class::flagship);
  // 280 wu (the static minimax) on a wearable: 5.6 s; flagship: 0.4 s.
  EXPECT_NEAR(wearable.local_execution_ms(280.0), 5'600.0, 1.0);
  EXPECT_NEAR(flagship.local_execution_ms(280.0), 400.0, 1.0);
}

TEST(DeviceProfile, OffloadDecisionFollowsEnergyInequality) {
  const device_profile device = profile_for(device_class::midrange);
  const double work = 100.0;
  const double local_energy = device.local_energy(work);
  // A response fast enough to cost less radio energy than the local run.
  const double cheap_ms = local_energy / device.radio_drain_per_ms * 0.5;
  const double pricey_ms = local_energy / device.radio_drain_per_ms * 2.0;
  EXPECT_TRUE(device.should_offload(work, cheap_ms));
  EXPECT_FALSE(device.should_offload(work, pricey_ms));
}

TEST(DeviceProfile, WeakDevicesOffloadMoreEagerly) {
  const double work = 50.0;
  const double response = 1'500.0;
  // The wearable's local energy is far higher, so offloading at this
  // response time pays off for it but not for the flagship.
  EXPECT_TRUE(
      profile_for(device_class::wearable).should_offload(work, response));
  EXPECT_FALSE(
      profile_for(device_class::flagship).should_offload(work, response));
}

TEST(DeviceProfile, FasterRemotelyComparesLatency) {
  const device_profile wearable = profile_for(device_class::wearable);
  // 280 wu locally = 5.6 s; a 2 s cloud response is faster.
  EXPECT_TRUE(wearable.faster_remotely(280.0, 2'000.0));
  EXPECT_FALSE(wearable.faster_remotely(280.0, 6'000.0));
}

TEST(DeviceProfile, EnergyIsOneProductPerResource) {
  const device_profile budget = profile_for(device_class::budget);
  EXPECT_DOUBLE_EQ(budget.local_energy(1'000.0),
                   1'000.0 * budget.cpu_drain_per_wu);
  EXPECT_DOUBLE_EQ(budget.offload_energy(10'000.0),
                   10'000.0 * budget.radio_drain_per_ms);
}

}  // namespace
}  // namespace mca::client
