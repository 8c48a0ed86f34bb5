#include "client/usage_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

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

/// Index of the first differing millisecond gap, or the shorter length.
std::size_t first_difference(std::span<const std::uint16_t> a,
                             std::span<const std::uint16_t> b) {
  std::size_t i = 0;
  while (i < std::min(a.size(), b.size()) && a[i] == b[i]) ++i;
  return i;
}

/// Gaps rounded to the nearest whole millisecond, as the study stores them.
std::vector<std::uint16_t> rounded_ms(std::span<const double> gaps) {
  std::vector<std::uint16_t> out;
  out.reserve(gaps.size());
  for (const double gap : gaps) {
    out.push_back(static_cast<std::uint16_t>(std::lround(gap)));
  }
  return out;
}

/// One participant as the synthesis drew it before session runs were
/// merged: every event into one array, then std::sort.  Kept here, draw
/// for draw, as the reference the streaming synthesis must reproduce.
struct reference_participant {
  std::vector<double> events;
  /// Sessions that start before an earlier-starting session's last event,
  /// so that their runs interleave.
  std::size_t overlapping_sessions = 0;
};

reference_participant reference_synthesis(const usage_study_config& config,
                                          util::rng& rng) {
  reference_participant out;
  std::vector<std::pair<double, double>> sessions;  // first, last event
  const auto total_days = static_cast<std::size_t>(config.days);
  for (std::size_t day = 0; day < total_days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double weight = diurnal_activity(hour + 0.5);
      if (weight <= 0.0) continue;
      const double expected_sessions = 3.0 * weight;
      std::size_t count = 0;
      double p = std::exp(-expected_sessions);
      double cumulative = p;
      const double u = rng.uniform();
      while (u > cumulative && count < 50) {
        ++count;
        p *= expected_sessions / static_cast<double>(count);
        cumulative += p;
      }
      for (std::size_t s = 0; s < count; ++s) {
        const double session_start =
            util::hours(static_cast<double>(day) * 24.0 + hour) +
            rng.uniform(0.0, util::hours(1.0));
        const double sigma = 0.8;
        const double mu = std::log(util::minutes(2.5)) - sigma * sigma / 2.0;
        const double length = rng.lognormal(mu, sigma);
        double t = session_start;
        const double session_end = session_start + length;
        const std::size_t first = out.events.size();
        while (t < session_end) {
          out.events.push_back(t);
          t += std::clamp(rng.lognormal(std::log(900.0), 0.9), 100.0, 5'000.0);
        }
        if (out.events.size() > first) {
          sessions.emplace_back(out.events[first], out.events.back());
        }
      }
    }
  }
  std::sort(out.events.begin(), out.events.end());
  std::sort(sessions.begin(), sessions.end());
  double last = -1.0;
  for (const auto& [first, final_event] : sessions) {
    if (first < last) ++out.overlapping_sessions;
    last = std::max(last, final_event);
  }
  return out;
}

/// A whole study through the reference: each participant's events, and
/// the exact in-band gaps pooled in participant then time order.
struct reference_study {
  std::vector<std::vector<double>> events;
  std::vector<double> gaps;
  std::size_t overlapping_sessions = 0;
};

reference_study reference_interarrivals(const usage_study_config& config,
                                        std::uint64_t seed) {
  reference_study out;
  util::rng rng{seed};
  for (std::size_t p = 0; p < config.participants; ++p) {
    util::rng stream = rng.fork();
    auto participant = reference_synthesis(config, stream);
    out.overlapping_sessions += participant.overlapping_sessions;
    const auto& events = out.events.emplace_back(std::move(participant.events));
    for (std::size_t i = 1; i < events.size(); ++i) {
      const double gap = events[i] - events[i - 1];
      if (gap >= 100.0 && gap <= 5'000.0) out.gaps.push_back(gap);
    }
  }
  return out;
}

/// Diffs the synthesis against the reference byte for byte: every
/// participant's events, the pooled gaps in order against the reference's
/// rounded to the nearest ms, and the distribution's samples against the
/// same rounded gaps, in synthesis order.  Returns the reference's count
/// of overlapping sessions.
std::size_t expect_matches_reference(const usage_study_config& config,
                                     std::uint64_t seed,
                                     const std::string& label) {
  auto reference = reference_interarrivals(config, seed);
  util::rng rng{seed};
  for (std::size_t p = 0; p < config.participants; ++p) {
    util::rng stream = rng.fork();
    const auto events = synthesize_participant_events(config, stream);
    const auto& want = reference.events[p];
    EXPECT_EQ(events.size(), want.size()) << label << " participant " << p;
    EXPECT_EQ(first_difference(events, want), want.size())
        << label << " participant " << p;
  }
  const auto want_gaps = rounded_ms(reference.gaps);
  util::rng pooled{seed};
  const auto gaps = study_interarrivals(config, pooled);
  EXPECT_EQ(gaps.size(), want_gaps.size()) << label;
  EXPECT_EQ(first_difference(gaps, want_gaps), want_gaps.size()) << label;
  if (!want_gaps.empty()) {
    const auto dist = study_interarrival_distribution(config, seed);
    EXPECT_EQ(dist.samples().size(), want_gaps.size()) << label;
    EXPECT_EQ(first_difference(dist.samples(), want_gaps), want_gaps.size())
        << label;
  }
  return reference.overlapping_sessions;
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
  for (const std::uint16_t g : gaps) {
    EXPECT_GE(g, 100u);
    EXPECT_LE(g, 5'000u);
  }
}

TEST(UsageTrace, DistributionMeanIsSubSecondScale) {
  const auto dist = study_interarrival_distribution(small_study(), 42);
  const std::vector<double> samples{dist.samples().begin(),
                                    dist.samples().end()};
  const auto stats = util::summary_of(samples);
  // Within-session gaps centre around the lognormal's ~900 ms body.
  EXPECT_GT(stats.mean, 400.0);
  EXPECT_LT(stats.mean, 2'500.0);
  EXPECT_GE(stats.min, 100.0);
  EXPECT_LE(stats.max, 5'000.0);
}

TEST(UsageTrace, DeterministicForSeed) {
  // The default 6-participant, 90-day study, bit for bit: the distribution
  // holds exactly the pooled gaps, in synthesis order, and a second
  // synthesis from the same seed reproduces it.
  const usage_study_config config;
  for (const std::uint64_t seed : {9u, 10u}) {
    util::rng rng{seed};
    const auto reference = study_interarrivals(config, rng);
    EXPECT_LE(static_cast<double>(reference.capacity()),
              1.1 * static_cast<double>(reference.size()))
        << "seed " << seed;
    const auto a = study_interarrival_distribution(config, seed);
    const auto b = study_interarrival_distribution(config, seed);
    ASSERT_EQ(a.samples().size(), reference.size()) << "seed " << seed;
    ASSERT_EQ(b.samples().size(), reference.size()) << "seed " << seed;
    EXPECT_EQ(first_difference(a.samples(), reference), reference.size())
        << "seed " << seed;
    EXPECT_EQ(first_difference(b.samples(), reference), reference.size())
        << "seed " << seed;
  }
}

TEST(UsageTrace, IndexDrawsFollowTheStudyEcdf) {
  // Draws by index into the unsorted study have the law of its ECDF F.
  // By the Dvoretzky–Kiefer–Wolfowitz inequality (Massart's constant), N
  // i.i.d. draws from F have an ECDF F_N with
  //   P(sup |F_N − F| > ε) ≤ 2·exp(−2Nε²),
  // for a discrete F too.  N = 200,000 and a 10⁻⁹ bound per seed give
  // ε = sqrt(ln(2·10⁹) / (2N)) ≈ 0.00732.
  constexpr std::size_t kDraws = 200'000;
  const double epsilon =
      std::sqrt(std::log(2e9) / (2.0 * static_cast<double>(kDraws)));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto dist = study_interarrival_distribution({}, seed);
    util::rng rng{seed + 100};
    std::vector<double> draws(kDraws);
    for (double& x : draws) x = dist.sample(rng);
    std::vector<double> pool{dist.samples().begin(), dist.samples().end()};
    std::sort(pool.begin(), pool.end());
    std::sort(draws.begin(), draws.end());
    // Both ECDFs step only at pool values, so the supremum is reached at
    // one of them: walk the distinct values in order.
    double worst = 0.0;
    std::size_t in_pool = 0;
    std::size_t in_draws = 0;
    while (in_pool < pool.size()) {
      const double x = pool[in_pool];
      while (in_pool < pool.size() && pool[in_pool] == x) ++in_pool;
      while (in_draws < draws.size() && draws[in_draws] <= x) ++in_draws;
      const double f = static_cast<double>(in_pool) /
                       static_cast<double>(pool.size());
      const double f_n = static_cast<double>(in_draws) /
                         static_cast<double>(draws.size());
      worst = std::max(worst, std::abs(f_n - f));
    }
    EXPECT_EQ(in_draws, draws.size()) << "seed " << seed;
    EXPECT_LE(worst, epsilon) << "seed " << seed;
  }
}

TEST(UsageTrace, MergedRunsMatchTheSortedReferenceByteForByte) {
  // Short studies, where one hour's window and the first and last days
  // are a large share of the events.  Overlapping sessions must occur, or
  // the merge never interleaves two runs.
  for (const std::size_t participants : {1u, 2u}) {
    for (const double days : {1.0, 7.0}) {
      usage_study_config config;
      config.participants = participants;
      config.days = days;
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const std::size_t overlaps = expect_matches_reference(
            config, seed,
            std::to_string(participants) + " participants, " +
                std::to_string(static_cast<int>(days)) + " days, seed " +
                std::to_string(seed));
        if (days == 7.0) {
          EXPECT_GT(overlaps, 0u) << participants << " participants, seed "
                                  << seed;
        }
      }
    }
  }
}

TEST(UsageTrace, DefaultStudyMatchesTheSortedReferenceByteForByte) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::size_t overlaps = expect_matches_reference(
        usage_study_config{}, seed,
        "default study, seed " + std::to_string(seed));
    EXPECT_GT(overlaps, 1'000u) << "seed " << seed;
  }
}

TEST(UsageTrace, PoolIsTheReferenceGapsRoundedToTheNearestMs) {
  // The rounding contract: the band test reads the exact gap and only the
  // stored value is rounded, so the pool keeps exactly the reference's
  // in-band gaps, each within half a millisecond and never outside the
  // band.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto reference = reference_interarrivals({}, seed);
    util::rng rng{seed};
    const auto pool = study_interarrivals({}, rng);
    ASSERT_EQ(pool.size(), reference.gaps.size()) << "seed " << seed;
    std::size_t mismatches = 0;
    std::size_t out_of_band = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i] != std::lround(reference.gaps[i]) && mismatches++ == 0) {
        ADD_FAILURE() << "seed " << seed << ": gap " << i << " stored "
                      << pool[i] << " ms for " << reference.gaps[i] << " ms";
      }
      if (pool[i] < 100 || pool[i] > 5'000) ++out_of_band;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(out_of_band, 0u) << "seed " << seed;
  }
}

TEST(UsageTrace, MoreParticipantsMoreData) {
  auto small = small_study();
  auto large = small_study();
  large.participants = 6;
  const auto few = study_interarrival_distribution(small, 3);
  const auto many = study_interarrival_distribution(large, 3);
  EXPECT_GT(many.samples().size(), few.samples().size());
}

}  // namespace
}  // namespace mca::client
