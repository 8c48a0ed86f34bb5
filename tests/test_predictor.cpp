#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace mca::core {
namespace {

/// Slot with `count` users (ids base..base+count-1) in group `g` of `n`.
trace::time_slot slot_with(std::size_t n_groups, group_id g, std::size_t count,
                           user_id base = 0) {
  trace::time_slot slot{n_groups};
  for (std::size_t i = 0; i < count; ++i) {
    slot.add_user(g, base + static_cast<user_id>(i));
  }
  return slot;
}

/// A perfectly periodic day: counts cycle over `pattern` per slot.
std::vector<trace::time_slot> periodic_history(
    const std::vector<std::size_t>& pattern, std::size_t repetitions) {
  std::vector<trace::time_slot> history;
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    for (const std::size_t count : pattern) {
      history.push_back(slot_with(2, 1, count));
    }
  }
  return history;
}

/// Slot of 3 groups, each holding a random subset of users 0..3 and empty
/// one time in three: a small alphabet, so random knowledge bases are full
/// of duplicate slots, empty groups and distance ties.
trace::time_slot random_slot(util::rng& rng) {
  trace::time_slot slot{3};
  for (group_id g = 0; g < 3; ++g) {
    if (rng.bernoulli(1.0 / 3.0)) continue;
    for (user_id u = 0; u < 4; ++u) {
      if (rng.bernoulli(0.5)) slot.add_user(g, u);
    }
  }
  return slot;
}

/// The two-scan formulation the one-scan forecast replaced, kept as the
/// reference: a full nearest-neighbour scan (used only to test for an empty
/// knowledge base in successor mode), then a second scan over the slots
/// that have a successor and a third distance to the newest slot.  Returns
/// the index of the forecast slot, or nullopt.
std::optional<std::size_t> two_scan_forecast(
    const std::vector<trace::time_slot>& history, prediction_mode mode,
    const trace::time_slot& current) {
  if (history.empty()) return std::nullopt;
  std::size_t nearest = 0;
  std::size_t nearest_distance = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < history.size(); ++i) {
    const std::size_t d = trace::slot_distance(current, history[i]);
    if (d <= nearest_distance) {
      nearest_distance = d;
      nearest = i;
    }
  }
  if (mode == prediction_mode::match) return nearest;
  if (history.size() < 2) return std::nullopt;
  std::size_t best = history.size();
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i + 1 < history.size(); ++i) {
    const std::size_t d = trace::slot_distance(current, history[i]);
    if (d <= best_distance) {
      best_distance = d;
      best = i;
    }
  }
  if (best + 1 < history.size() &&
      best_distance <= trace::slot_distance(current, history.back())) {
    return best + 1;
  }
  return history.size() - 1;
}

/// Asserts that forecast() returns the very history slot (by address) the
/// two-scan reference picks in `mode` (the predictor's), or nullptr
/// exactly when it picks none.
void expect_same_forecast(const workload_predictor& p, prediction_mode mode,
                          const trace::time_slot& current) {
  const auto want = two_scan_forecast(p.history(), mode, current);
  const trace::time_slot* got = p.forecast(current);
  if (!want) {
    EXPECT_EQ(got, nullptr);
  } else {
    EXPECT_EQ(got, &p.history()[*want]) << "reference index " << *want;
  }
}

TEST(Predictor, EmptyHistoryPredictsNothing) {
  workload_predictor p;
  EXPECT_EQ(p.forecast(slot_with(2, 1, 3)), nullptr);
  workload_predictor match{prediction_mode::match};
  EXPECT_EQ(match.forecast(slot_with(2, 1, 3)), nullptr);
}

TEST(Predictor, ObserveGrowsHistory) {
  workload_predictor p;
  p.observe(slot_with(2, 1, 1));
  p.observe(slot_with(2, 1, 2));
  EXPECT_EQ(p.history().size(), 2u);
}

TEST(Predictor, MatchForecastFindsExactMatch) {
  workload_predictor p{prediction_mode::match};
  p.set_history({slot_with(2, 1, 2), slot_with(2, 1, 5), slot_with(2, 1, 9)});
  const trace::time_slot* slot = p.forecast(slot_with(2, 1, 5));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot, &p.history()[1]);
}

TEST(Predictor, TiesResolveToMostRecent) {
  workload_predictor p{prediction_mode::match};
  // Two identical slots: index 2 (most recent) must win over index 0.
  p.set_history({slot_with(2, 1, 4), slot_with(2, 1, 9), slot_with(2, 1, 4)});
  const trace::time_slot* slot = p.forecast(slot_with(2, 1, 4));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot, &p.history()[2]);
}

TEST(Predictor, SuccessorModePredictsFollowingSlot) {
  workload_predictor p{prediction_mode::successor};
  p.set_history({slot_with(2, 1, 2), slot_with(2, 1, 7), slot_with(2, 1, 3)});
  const trace::time_slot* predicted = p.forecast(slot_with(2, 1, 2));
  ASSERT_NE(predicted, nullptr);
  EXPECT_EQ(predicted->users_in(1).size(), 7u);  // slot after the match
}

TEST(Predictor, MatchModePredictsTheMatchItself) {
  workload_predictor p{prediction_mode::match};
  p.set_history({slot_with(2, 1, 2), slot_with(2, 1, 7), slot_with(2, 1, 3)});
  const trace::time_slot* predicted = p.forecast(slot_with(2, 1, 2));
  ASSERT_NE(predicted, nullptr);
  EXPECT_EQ(predicted->users_in(1).size(), 2u);
}

TEST(Predictor, SuccessorFallsBackWhenMatchIsLast) {
  workload_predictor p{prediction_mode::successor};
  p.set_history({slot_with(2, 1, 2), slot_with(2, 1, 9)});
  const trace::time_slot* predicted = p.forecast(slot_with(2, 1, 9));
  ASSERT_NE(predicted, nullptr);
  EXPECT_EQ(predicted->users_in(1).size(), 9u);  // persistence fallback
}

TEST(Predictor, SingleSlotHistorySuccessorModeReturnsNothing) {
  workload_predictor p{prediction_mode::successor};
  p.set_history({slot_with(2, 1, 2)});
  EXPECT_EQ(p.forecast(slot_with(2, 1, 2)), nullptr);
}

TEST(Predictor, GrowingLoadMatchedToLargestSeen) {
  // The paper's conservatism remark: a load larger than anything stored is
  // matched to the largest historical load.
  workload_predictor p{prediction_mode::match};
  p.set_history({slot_with(2, 1, 2), slot_with(2, 1, 10)});
  const trace::time_slot* predicted = p.forecast(slot_with(2, 1, 60));
  ASSERT_NE(predicted, nullptr);
  EXPECT_EQ(predicted->users_in(1).size(), 10u);
}

TEST(Predictor, ForecastCountsMatchSlotCounts) {
  workload_predictor p{prediction_mode::match};
  trace::time_slot mixed{3};
  mixed.add_user(0, 1);
  mixed.add_user(2, 5);
  mixed.add_user(2, 6);
  p.set_history({mixed});
  const trace::time_slot* slot = p.forecast(mixed);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->group_counts(), (std::vector<std::size_t>{1, 0, 2}));
}

TEST(PredictorDifferential, OneScanPicksTheTwoScanSlot) {
  // Seeded random knowledge bases of 0..12 slots over 3 groups, each
  // queried with a fresh random slot, the newest slot, and every earlier
  // slot: the cases where ties between equal distances decide the winner.
  util::rng rng{2024};
  std::size_t compared = 0;
  for (const prediction_mode mode :
       {prediction_mode::successor, prediction_mode::match}) {
    for (std::size_t trial = 0; trial < 200; ++trial) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(0, 12));
      std::vector<trace::time_slot> history;
      for (std::size_t i = 0; i < size; ++i) {
        history.push_back(random_slot(rng));
      }
      workload_predictor p{mode};
      p.set_history(std::move(history));
      SCOPED_TRACE(::testing::Message()
                   << to_string(mode) << " trial " << trial << " size "
                   << size);
      expect_same_forecast(p, mode, random_slot(rng));
      expect_same_forecast(p, mode, trace::time_slot{3});  // every group empty
      // The newest and every earlier slot.
      for (const trace::time_slot& slot : p.history()) {
        expect_same_forecast(p, mode, slot);
      }
      compared += 2 + size;
    }
  }
  EXPECT_GT(compared, 2000u);
}

TEST(PredictorDifferential, DuplicateSlotsTieTheSameWay) {
  // A run of identical slots with one odd slot between them, queried with
  // the duplicate and the odd slot: each mode must pick the same
  // duplicate (or its successor) as the two-scan reference.
  const trace::time_slot dup = slot_with(3, 2, 3);
  const trace::time_slot odd = slot_with(3, 0, 2, 7);
  for (const prediction_mode mode :
       {prediction_mode::successor, prediction_mode::match}) {
    for (const auto& history : std::vector<std::vector<trace::time_slot>>{
             {dup, dup},
             {dup, dup, dup},
             {dup, odd, dup},
             {odd, dup, dup},
             {dup, dup, odd},
             {dup, odd, dup, odd},
             {trace::time_slot{3}, trace::time_slot{3}, dup}}) {
      workload_predictor p{mode};
      p.set_history(history);
      SCOPED_TRACE(::testing::Message()
                   << to_string(mode) << " size " << history.size());
      expect_same_forecast(p, mode, dup);
      expect_same_forecast(p, mode, odd);
      expect_same_forecast(p, mode, trace::time_slot{3});
    }
  }
}

TEST(PredictorDifferential, ClosedSlotForecastPicksTheFullScanSlot) {
  // The running system observes the slot it just closed and forecasts from
  // it, forecast(history().back()), which forecast() answers by slot
  // equality alone.  Over 10^4 seeded small histories of 1..8 slots from a
  // small alphabet (empty groups, empty slots, repeated slots, one-slot
  // histories), in both modes, it must pick the slot the full
  // edit-distance scan picks, asked with the newest slot itself and with
  // an equal copy of it.
  util::rng rng{36};
  std::size_t single_slot = 0;
  std::size_t newest_seen_before = 0;
  std::size_t compared = 0;
  for (std::size_t trial = 0; trial < 10'000; ++trial) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 8));
    std::vector<trace::time_slot> history;
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.bernoulli(0.1)) {
        history.emplace_back(3);  // every group empty
      } else if (i > 0 && rng.bernoulli(0.25)) {
        // A repeat of an earlier slot (copied: push_back may reallocate).
        const trace::time_slot earlier = history[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))];
        history.push_back(earlier);
      } else {
        history.push_back(random_slot(rng));
      }
    }
    if (size == 1) ++single_slot;
    if (std::find(history.begin(), history.end() - 1, history.back()) !=
        history.end() - 1) {
      ++newest_seen_before;
    }
    for (const prediction_mode mode :
         {prediction_mode::successor, prediction_mode::match}) {
      workload_predictor p{mode};
      p.set_history(history);
      SCOPED_TRACE(::testing::Message()
                   << to_string(mode) << " trial " << trial << " size "
                   << size);
      expect_same_forecast(p, mode, p.history().back());
      const trace::time_slot copy = p.history().back();
      expect_same_forecast(p, mode, copy);
      compared += 2;
    }
  }
  EXPECT_EQ(compared, 40'000u);
  // Both equality branches ran often: one-slot histories, and a newest
  // slot that repeats an earlier one (the successor of its latest copy).
  EXPECT_GT(single_slot, 1'000u);
  EXPECT_GT(newest_seen_before, 2'000u);
}

TEST(PredictionAccuracy, PerfectForecastIsOne) {
  const std::vector<std::size_t> counts{3, 0, 7};
  EXPECT_DOUBLE_EQ(prediction_accuracy(counts, counts), 1.0);
}

TEST(PredictionAccuracy, EmptyGroupsScoreFullMarks) {
  const std::vector<std::size_t> zeros{0, 0};
  EXPECT_DOUBLE_EQ(prediction_accuracy(zeros, zeros), 1.0);
}

TEST(PredictionAccuracy, KnownPartialScores) {
  // Group 0: |5-10|/10 -> 0.5; group 1: exact -> 1.0; mean 0.75.
  EXPECT_DOUBLE_EQ(
      prediction_accuracy(std::vector<std::size_t>{5, 4},
                          std::vector<std::size_t>{10, 4}),
      0.75);
}

TEST(PredictionAccuracy, TotallyWrongIsZero) {
  EXPECT_DOUBLE_EQ(prediction_accuracy(std::vector<std::size_t>{0},
                                       std::vector<std::size_t>{100}),
                   0.0);
}

TEST(PredictionAccuracy, Validation) {
  EXPECT_THROW(prediction_accuracy(std::vector<std::size_t>{1},
                                   std::vector<std::size_t>{1, 2}),
               std::invalid_argument);
  EXPECT_THROW(prediction_accuracy(std::vector<std::size_t>{},
                                   std::vector<std::size_t>{}),
               std::invalid_argument);
}

TEST(WalkForward, PerfectOnPeriodicHistory) {
  // With a full period of *unambiguous* states in the knowledge base,
  // nearest-neighbour successor prediction nails a periodic workload.
  const auto history = periodic_history({2, 5, 9, 13}, 6);
  const auto accuracy = walk_forward_accuracy(history, 8);
  ASSERT_TRUE(accuracy.has_value());
  EXPECT_NEAR(*accuracy, 1.0, 1e-12);
}

TEST(WalkForward, AccuracyImprovesWithHistory) {
  // Noisy quasi-periodic data: more knowledge -> better (or equal) score.
  util::rng rng{5};
  std::vector<trace::time_slot> history;
  const std::vector<std::size_t> pattern{3, 8, 15, 22, 15, 8};
  for (std::size_t i = 0; i < 48; ++i) {
    const auto noise = static_cast<std::size_t>(rng.uniform_int(0, 2));
    history.push_back(slot_with(2, 1, pattern[i % pattern.size()] + noise));
  }
  const auto early = walk_forward_accuracy(history, 3);
  const auto late = walk_forward_accuracy(history, 24);
  ASSERT_TRUE(early.has_value());
  ASSERT_TRUE(late.has_value());
  // Noise keeps this from being strictly monotone; allow a small slack.
  EXPECT_GE(*late + 0.03, *early);
  EXPECT_GT(*late, 0.8);
}

TEST(WalkForward, DegenerateSizesReturnNothing) {
  const auto history = periodic_history({1, 2}, 3);
  EXPECT_FALSE(walk_forward_accuracy(history, 0).has_value());
  EXPECT_FALSE(walk_forward_accuracy(history, 1).has_value());
  EXPECT_FALSE(walk_forward_accuracy(history, history.size()).has_value());
}

TEST(CrossValidate, TenFoldOnPeriodicDataScoresHigh) {
  const auto history = periodic_history({2, 5, 9, 5, 3, 7}, 10);  // 60 slots
  const auto result = cross_validate(history, 10);
  EXPECT_EQ(result.fold_accuracy.size(), 10u);
  EXPECT_GT(result.mean_accuracy, 0.9);
}

TEST(CrossValidate, Validation) {
  const auto history = periodic_history({1, 2}, 2);
  EXPECT_THROW(cross_validate(history, 1), std::invalid_argument);
  EXPECT_THROW(cross_validate(history, 10), std::invalid_argument);
}

TEST(PredictionModeNames, Stable) {
  EXPECT_STREQ(to_string(prediction_mode::successor), "successor");
  EXPECT_STREQ(to_string(prediction_mode::match), "match");
}

}  // namespace
}  // namespace mca::core
