#include "client/moderator.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace mca::client {
namespace {

TEST(Moderator, ValidatesConstruction) {
  EXPECT_THROW(moderator(-0.1, 1, 3, 4, util::rng{1}), std::invalid_argument);
  EXPECT_THROW(moderator(1.5, 1, 3, 4, util::rng{1}), std::invalid_argument);
  EXPECT_THROW(moderator(std::numeric_limits<double>::quiet_NaN(), 1, 3, 4,
                         util::rng{1}),
               std::invalid_argument);
  EXPECT_THROW(moderator(0.5, 4, 3, 4, util::rng{1}), std::invalid_argument);
  EXPECT_NO_THROW(moderator(0.0, 1, 3, 4, util::rng{1}));
  EXPECT_NO_THROW(moderator(1.0, 3, 3, 4, util::rng{1}));
}

TEST(Moderator, GroupsFitOneByte) {
  EXPECT_THROW(moderator(0.5, 1, 256, 4, util::rng{1}), std::invalid_argument);
  moderator top{1.0, 254, 255, 2, util::rng{1}};
  top.record_response(1);
  top.record_response(1);
  EXPECT_EQ(top.group_of(1), 255u);  // capped at the largest byte
  EXPECT_EQ(top.group_of(0), 254u);
}

TEST(Moderator, UsersStartInInitialGroup) {
  const moderator mod{1.0 / 50.0, 1, 3, 100, util::rng{1}};
  EXPECT_EQ(mod.group_of(17), 1u);
  EXPECT_EQ(mod.group_of(99), 1u);
  EXPECT_EQ(mod.promotions(), 0u);
}

TEST(Moderator, PromotionRateMatchesProbability) {
  // One response from each of n users in group 1: each promotes with
  // probability 1/50; binomial sd = sqrt(0.02 * 0.98 / n) ~ 0.0006, so
  // the 0.003 tolerance is five sd.
  const std::size_t n = 50'000;
  moderator mod{1.0 / 50.0, 1, 3, n, util::rng{7}};
  std::size_t promoted = 0;
  for (user_id u = 0; u < n; ++u) {
    mod.record_response(u);
    if (mod.group_of(u) == 2u) ++promoted;
  }
  EXPECT_EQ(mod.promotions(), promoted);
  EXPECT_NEAR(static_cast<double>(promoted) / static_cast<double>(n), 0.02,
              0.003);
}

TEST(Moderator, RecordResponsePromotesAndCaps) {
  moderator mod{1.0, 1, 3, 8, util::rng{1}};
  mod.record_response(5);
  EXPECT_EQ(mod.group_of(5), 2u);
  mod.record_response(5);
  EXPECT_EQ(mod.group_of(5), 3u);
  mod.record_response(5);
  EXPECT_EQ(mod.group_of(5), 3u);  // capped at max
  EXPECT_EQ(mod.promotions(), 2u);
  EXPECT_EQ(mod.group_of(4), 1u);  // other users untouched
}

TEST(Moderator, PromotionsAreSequential) {
  // Even with probability 1, each response promotes by exactly one level.
  moderator mod{1.0, 1, 4, 2, util::rng{1}};
  for (group_id expected = 2; expected <= 4; ++expected) {
    mod.record_response(1);
    EXPECT_EQ(mod.group_of(1), expected);
  }
}

TEST(Moderator, DrawsOnceBelowTheTopGroupAndNeverAtIt) {
  // Replays the moderator against a reference generator with the same
  // seed: a response below the top group consumes exactly one
  // bernoulli(p), a response at the top group consumes none.  Any other
  // discipline desynchronizes the two streams, and the next promotion
  // decision below the top group then differs.
  const double p = 0.3;
  const group_id max_group = 3;
  const std::size_t users = 4;
  moderator mod{p, 1, max_group, users, util::rng{42}};
  util::rng reference{42};
  std::vector<group_id> expected(users, 1);
  std::size_t top_responses = 0;
  std::size_t draws_after_a_top_response = 0;
  for (std::size_t step = 0; step < 400; ++step) {
    // A fixed, uneven visiting order so users reach the top at different
    // times and top-group responses interleave with draws.
    const user_id u = static_cast<user_id>((step * step + step / 3) % users);
    if (expected[u] < max_group) {
      if (top_responses > 0) ++draws_after_a_top_response;
      if (reference.bernoulli(p)) ++expected[u];
    } else {
      ++top_responses;
    }
    mod.record_response(u);
    for (user_id v = 0; v < users; ++v) {
      ASSERT_EQ(mod.group_of(v), expected[v]) << "step " << step;
    }
  }
  // The replay exercised the discipline it pins.
  EXPECT_GT(top_responses, 0u);
  EXPECT_GT(draws_after_a_top_response, 0u);
}

}  // namespace
}  // namespace mca::client
