#include "trace/edit_distance.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace mca::trace {
namespace {

using users = std::vector<user_id>;

TEST(EditDistance, EmptySequences) {
  EXPECT_EQ(edit_distance(users{}, users{}), 0u);
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{}), 3u);
  EXPECT_EQ(edit_distance(users{}, users{7}), 1u);
}

TEST(EditDistance, IdenticalIsZero) {
  const users a{1, 2, 3, 4};
  EXPECT_EQ(edit_distance(a, a), 0u);
}

TEST(EditDistance, KnownSmallCases) {
  EXPECT_EQ(edit_distance(users{1}, users{2}), 1u);                 // sub
  EXPECT_EQ(edit_distance(users{1, 2}, users{2}), 1u);              // del
  EXPECT_EQ(edit_distance(users{2}, users{1, 2}), 1u);              // ins
  EXPECT_EQ(edit_distance(users{1, 2}, users{2, 3}), 2u);
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{1, 9, 3}), 1u);
}

TEST(EditDistance, KittenSittingAnalogue) {
  // The classic kitten/sitting distance of 3 encoded as ids:
  // k=1 i=2 t=3 e=4 n=5 / s=6 g=7.
  const users kitten{1, 2, 3, 3, 4, 5};
  const users sitting{6, 2, 3, 3, 2, 5, 7};
  EXPECT_EQ(edit_distance(kitten, sitting), 3u);
}

TEST(EditDistance, DisjointSetsCostMaxLength) {
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{4, 5, 6}), 3u);
  EXPECT_EQ(edit_distance(users{1, 2}, users{4, 5, 6, 7}), 4u);
}

// Property sweeps: Levenshtein must satisfy the metric axioms.
class EditDistanceMetric : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  users random_sequence(util::rng& rng, int max_len, int alphabet) {
    users s;
    const int n = static_cast<int>(rng.uniform_int(0, max_len));
    for (int i = 0; i < n; ++i) {
      s.push_back(static_cast<user_id>(rng.uniform_int(0, alphabet - 1)));
    }
    return s;
  }
};

TEST_P(EditDistanceMetric, SymmetryIdentityTriangle) {
  util::rng rng{GetParam()};
  for (int round = 0; round < 50; ++round) {
    const users a = random_sequence(rng, 12, 6);
    const users b = random_sequence(rng, 12, 6);
    const users c = random_sequence(rng, 12, 6);
    const auto dab = edit_distance(a, b);
    const auto dba = edit_distance(b, a);
    const auto dac = edit_distance(a, c);
    const auto dcb = edit_distance(c, b);
    EXPECT_EQ(dab, dba);                        // symmetry
    EXPECT_EQ(edit_distance(a, a), 0u);         // identity
    EXPECT_LE(dab, dac + dcb);                  // triangle inequality
    // Length-difference lower bound and max-length upper bound.
    const auto len_diff = a.size() > b.size() ? a.size() - b.size()
                                              : b.size() - a.size();
    EXPECT_GE(dab, len_diff);
    EXPECT_LE(dab, std::max(a.size(), b.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceMetric,
                         ::testing::Range<std::uint64_t>(1, 13));

namespace {

/// Naive exponential reference implementation for cross-checking the DP.
std::size_t reference_edit_distance(std::span<const user_id> a,
                                    std::span<const user_id> b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  const std::size_t substitution =
      reference_edit_distance(a.subspan(1), b.subspan(1)) +
      (a.front() == b.front() ? 0 : 1);
  const std::size_t deletion = reference_edit_distance(a.subspan(1), b) + 1;
  const std::size_t insertion = reference_edit_distance(a, b.subspan(1)) + 1;
  return std::min({substitution, deletion, insertion});
}

}  // namespace

class EditDistanceVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EditDistanceVsReference, DpMatchesNaiveRecursion) {
  util::rng rng{GetParam()};
  for (int round = 0; round < 30; ++round) {
    users a;
    users b;
    const int na = static_cast<int>(rng.uniform_int(0, 7));
    const int nb = static_cast<int>(rng.uniform_int(0, 7));
    for (int i = 0; i < na; ++i) {
      a.push_back(static_cast<user_id>(rng.uniform_int(0, 3)));
    }
    for (int i = 0; i < nb; ++i) {
      b.push_back(static_cast<user_id>(rng.uniform_int(0, 3)));
    }
    EXPECT_EQ(edit_distance(a, b), reference_edit_distance(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceVsReference,
                         ::testing::Range<std::uint64_t>(20, 26));

namespace {

/// Textbook two-row Levenshtein, the oracle for the sparse path that
/// kicks in on strictly increasing (sorted-unique) sequences.
std::size_t dp_edit_distance(std::span<const user_id> a,
                             std::span<const user_id> b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> curr(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1,
                          prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

users random_sorted_unique(util::rng& rng, std::size_t max_len,
                           std::uint32_t universe) {
  users out;
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < len && next < universe; ++i) {
    next += static_cast<std::uint32_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(universe / max_len + 2)));
    out.push_back(next);
  }
  return out;
}

}  // namespace

TEST(EditDistanceSorted, MatchesDpOnSortedUniqueSequences) {
  util::rng rng{777};
  for (int round = 0; round < 300; ++round) {
    // Lengths straddle 64-element multiples, kept as a regression sweep.
    const users a = random_sorted_unique(rng, 150, 4'000);
    const users b = random_sorted_unique(rng, 150, 4'000);
    EXPECT_EQ(edit_distance(a, b), dp_edit_distance(a, b))
        << "round " << round << " |a|=" << a.size() << " |b|=" << b.size();
  }
}

TEST(EditDistanceSorted, ExactWordBoundaryLengths) {
  // Lengths at 64-element multiples, kept as regression cases.
  util::rng rng{778};
  for (const std::size_t len : {63u, 64u, 65u, 127u, 128u, 129u}) {
    users a;
    users b;
    for (std::size_t i = 0; i < len; ++i) {
      a.push_back(static_cast<user_id>(2 * i));
      if (rng.bernoulli(0.5)) b.push_back(static_cast<user_id>(2 * i + 1));
    }
    EXPECT_EQ(edit_distance(a, b), dp_edit_distance(a, b)) << "len " << len;
    EXPECT_EQ(edit_distance(a, a), 0u);
  }
}

TEST(EditDistanceSorted, OptimumMaySkipACommonUser) {
  // Aligning the shared 5 costs 2 + 2; three substitutions cost 3.
  EXPECT_EQ(edit_distance(users{1, 2, 5}, users{5, 7, 8}), 3u);
  EXPECT_EQ(edit_distance(users{5, 7, 8}, users{1, 2, 5}), 3u);
  // Aligning the shared 10 costs 3 + 3; four substitutions cost 4.
  EXPECT_EQ(edit_distance(users{1, 2, 3, 10}, users{10, 20, 30, 40}), 4u);
  // Keep 1 and 9 but skip the off-diagonal 4: 3 beats 2 + 3.
  EXPECT_EQ(edit_distance(users{1, 2, 3, 4, 9}, users{1, 4, 5, 6, 9}), 3u);
  EXPECT_EQ(edit_distance(users{1, 4, 5, 6, 9}, users{1, 2, 3, 4, 9}), 3u);
}

TEST(EditDistanceSorted, PrefixAndSuffixContainment) {
  EXPECT_EQ(edit_distance(users{1, 2, 3}, users{1, 2, 3, 4, 5}), 2u);
  EXPECT_EQ(edit_distance(users{1, 2, 3, 4, 5}, users{1, 2, 3}), 2u);
  EXPECT_EQ(edit_distance(users{4, 5}, users{1, 2, 3, 4, 5}), 3u);
  EXPECT_EQ(edit_distance(users{1, 2, 3, 4, 5}, users{4, 5}), 3u);
  EXPECT_EQ(edit_distance(users{2, 3}, users{1, 2, 3, 4}), 2u);
  EXPECT_EQ(edit_distance(users{1, 2, 3, 4}, users{2, 3}), 2u);
}

TEST(EditDistanceSorted, DisjointInterleavedCostsMaxLength) {
  EXPECT_EQ(edit_distance(users{1, 3, 5, 7}, users{2, 4, 6, 8}), 4u);
  EXPECT_EQ(edit_distance(users{1, 3, 5}, users{2, 4, 6, 8, 10}), 5u);
  EXPECT_EQ(edit_distance(users{2, 4, 6, 8, 10}, users{1, 3, 5}), 5u);
}

TEST(EditDistanceSorted, SymmetricWithoutSwappingArguments) {
  util::rng rng{779};
  for (int round = 0; round < 300; ++round) {
    const users a = random_sorted_unique(rng, 40, 120);
    const users b = random_sorted_unique(rng, 80, 120);
    const auto expected = dp_edit_distance(a, b);
    EXPECT_EQ(edit_distance(a, b), expected) << "round " << round;
    EXPECT_EQ(edit_distance(b, a), expected) << "round " << round;
  }
}

namespace {

/// Fleet-sized pair: `a` holds 1k-3k even ids; `b` keeps each of them with
/// probability `overlap` and interleaves fresh odd ids.
std::pair<users, users> overlapping_lists(util::rng& rng, double overlap) {
  users a;
  users b;
  const auto n = rng.uniform_int(1'000, 3'000);
  user_id id = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    id += static_cast<user_id>(2 * rng.uniform_int(1, 3));
    a.push_back(id);
    if (rng.bernoulli(overlap)) b.push_back(id);
    if (rng.bernoulli(0.4)) b.push_back(id + 1);
  }
  return {a, b};
}

}  // namespace

TEST(EditDistanceSorted, MatchesDpOnFleetSizedLists) {
  util::rng rng{780};
  for (const double overlap : {0.0, 0.3, 0.7, 1.0}) {
    for (int round = 0; round < 3; ++round) {
      const auto [a, b] = overlapping_lists(rng, overlap);
      EXPECT_EQ(edit_distance(a, b), dp_edit_distance(a, b))
          << "overlap " << overlap << " round " << round;
    }
  }
  const auto [a, b] = overlapping_lists(rng, 0.5);
  EXPECT_EQ(edit_distance(a, a), 0u);
  EXPECT_EQ(edit_distance(a, users{}), a.size());
  EXPECT_EQ(edit_distance(users{}, b), b.size());
}

}  // namespace
}  // namespace mca::trace
