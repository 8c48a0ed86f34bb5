#include "cloud/billing.h"

#include <gtest/gtest.h>

#include "util/sim_time.h"

namespace mca::cloud {
namespace {

instance_type dollar_type(const char* name = "t.one", double price = 1.0) {
  instance_type t;
  t.name = name;
  t.cost_per_hour = price;
  return t;
}

TEST(Billing, StartedHourIsBilledInFull) {
  billing_meter meter;
  meter.on_launch(1, dollar_type(), 0.0);
  meter.on_terminate(1, util::minutes(10));
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(5)), 1.0);
}

TEST(Billing, CeilOfPartialHours) {
  billing_meter meter;
  meter.on_launch(1, dollar_type(), 0.0);
  meter.on_terminate(1, util::hours(2.5));
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(5)), 3.0);
}

TEST(Billing, ExactHoursNotOverbilled) {
  billing_meter meter;
  meter.on_launch(1, dollar_type(), 0.0);
  meter.on_terminate(1, util::hours(2.0));
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(5)), 2.0);
}

TEST(Billing, RunningInstancesAccrue) {
  billing_meter meter;
  meter.on_launch(1, dollar_type(), util::hours(1.0));
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(1.5)), 1.0);
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(3.2)), 3.0);
  EXPECT_EQ(meter.active_instances(), 1u);
}

TEST(Billing, MixedTypesSummed) {
  billing_meter meter;
  meter.on_launch(1, dollar_type("cheap", 0.5), 0.0);
  meter.on_launch(2, dollar_type("pricey", 2.0), 0.0);
  meter.on_terminate(1, util::hours(1.0));
  meter.on_terminate(2, util::hours(2.0));
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(3)), 0.5 + 4.0);
}

TEST(Billing, DoubleLaunchThrows) {
  billing_meter meter;
  meter.on_launch(1, dollar_type(), 0.0);
  EXPECT_THROW(meter.on_launch(1, dollar_type(), 1.0), std::logic_error);
}

TEST(Billing, TerminateUnknownThrows) {
  billing_meter meter;
  EXPECT_THROW(meter.on_terminate(9, 0.0), std::logic_error);
}

TEST(Billing, RelaunchAfterTerminateAllowed) {
  billing_meter meter;
  meter.on_launch(1, dollar_type(), 0.0);
  meter.on_terminate(1, util::hours(1));
  meter.on_launch(1, dollar_type(), util::hours(2));
  meter.on_terminate(1, util::hours(3));
  EXPECT_DOUBLE_EQ(meter.total_cost(util::hours(4)), 2.0);
}

}  // namespace
}  // namespace mca::cloud
