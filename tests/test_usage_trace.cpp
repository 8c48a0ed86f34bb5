#include "client/usage_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

namespace mca::client {
namespace {

usage_study_config small_study() {
  usage_study_config config;
  config.participants = 2;
  config.days = 7.0;
  return config;
}

/// Index of the first element whose bits differ, or the shorter length.
std::size_t first_difference(std::span<const double> a,
                             std::span<const double> b) {
  std::size_t i = 0;
  while (i < std::min(a.size(), b.size()) &&
         std::bit_cast<std::uint64_t>(a[i]) == std::bit_cast<std::uint64_t>(b[i])) {
    ++i;
  }
  return i;
}

TEST(DiurnalActivity, QuietAtNightActiveInEvening) {
  EXPECT_EQ(diurnal_activity(2.0), 0.0);
  EXPECT_EQ(diurnal_activity(5.0), 0.0);
  EXPECT_GT(diurnal_activity(20.5), 0.8);
  EXPECT_GT(diurnal_activity(12.0), 0.2);
  EXPECT_GT(diurnal_activity(20.5), diurnal_activity(8.0));
}

TEST(DiurnalActivity, BoundedByOne) {
  for (double h = 0.0; h < 24.0; h += 0.25) {
    EXPECT_GE(diurnal_activity(h), 0.0);
    EXPECT_LE(diurnal_activity(h), 1.0);
  }
}

TEST(UsageTrace, EventsAreSortedAndInStudyWindow) {
  util::rng rng{5};
  const auto config = small_study();
  const auto events = synthesize_participant_events(config, rng);
  ASSERT_GT(events.size(), 50u);
  auto reference = events;
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(first_difference(events, reference), events.size());
  EXPECT_GE(events.front(), 0.0);
  EXPECT_LE(events.back(), util::hours(24.0 * config.days) + util::hours(1));
}

TEST(UsageTrace, NightsAreQuiet) {
  util::rng rng{6};
  const auto events = synthesize_participant_events(small_study(), rng);
  std::size_t night_events = 0;
  for (const auto t : events) {
    const double hour = std::fmod(util::to_hours(t), 24.0);
    if (hour < 6.5) ++night_events;
  }
  // Sessions start only in active hours; a tail of a late session may leak
  // past midnight but nights must stay essentially empty.
  EXPECT_LT(static_cast<double>(night_events),
            0.02 * static_cast<double>(events.size()));
}

TEST(UsageTrace, InterarrivalsClippedToPaperBand) {
  util::rng rng{7};
  const auto config = small_study();
  const auto gaps = study_interarrivals(config, rng);
  ASSERT_GT(gaps.size(), 100u);
  for (const double g : gaps) {
    EXPECT_GE(g, 100.0);
    EXPECT_LE(g, 5'000.0);
  }
}

TEST(UsageTrace, DistributionMeanIsSubSecondScale) {
  const auto dist = study_interarrival_distribution(small_study(), 42);
  const auto stats = dist.stats();
  // Within-session gaps centre around the lognormal's ~900 ms body.
  EXPECT_GT(stats.mean, 400.0);
  EXPECT_LT(stats.mean, 2'500.0);
  EXPECT_GE(stats.min, 100.0);
  EXPECT_LE(stats.max, 5'000.0);
}

TEST(UsageTrace, DeterministicForSeed) {
  // The default 6-participant, 90-day study, bit for bit: the distribution
  // holds exactly the pooled gaps std::sort orders, and a second synthesis
  // from the same seed reproduces it.
  const usage_study_config config;
  for (const std::uint64_t seed : {9u, 10u}) {
    util::rng rng{seed};
    auto reference = study_interarrivals(config, rng);
    EXPECT_LE(static_cast<double>(reference.capacity()),
              1.1 * static_cast<double>(reference.size()))
        << "seed " << seed;
    std::sort(reference.begin(), reference.end());
    const auto a = study_interarrival_distribution(config, seed);
    const auto b = study_interarrival_distribution(config, seed);
    ASSERT_EQ(a.size(), reference.size()) << "seed " << seed;
    ASSERT_EQ(b.size(), reference.size()) << "seed " << seed;
    EXPECT_EQ(first_difference(a.sorted(), reference), reference.size())
        << "seed " << seed;
    EXPECT_EQ(first_difference(b.sorted(), reference), reference.size())
        << "seed " << seed;
  }
}

TEST(UsageTrace, MoreParticipantsMoreData) {
  auto small = small_study();
  auto large = small_study();
  large.participants = 6;
  const auto few = study_interarrival_distribution(small, 3);
  const auto many = study_interarrival_distribution(large, 3);
  EXPECT_GT(many.size(), few.size());
}

}  // namespace
}  // namespace mca::client
