#include "trace/time_slot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace mca::trace {
namespace {

TEST(TimeSlot, StartsEmpty) {
  time_slot slot{3};
  EXPECT_EQ(slot.group_count(), 3u);
  EXPECT_TRUE(slot.empty());
  EXPECT_EQ(slot.total_users(), 0u);
}

TEST(TimeSlot, AddKeepsUsersSortedAndUnique) {
  time_slot slot{2};
  slot.add_user(0, 5);
  slot.add_user(0, 1);
  slot.add_user(0, 9);
  slot.add_user(0, 5);  // duplicate absorbed
  const auto users = slot.users_in(0);
  ASSERT_EQ(users.size(), 3u);
  EXPECT_EQ(users[0], 1u);
  EXPECT_EQ(users[1], 5u);
  EXPECT_EQ(users[2], 9u);
}

TEST(TimeSlot, GroupsAreIndependent) {
  time_slot slot{3};
  slot.add_user(0, 1);
  slot.add_user(2, 1);
  slot.add_user(2, 2);
  EXPECT_EQ(slot.users_in(0).size(), 1u);
  EXPECT_EQ(slot.users_in(1).size(), 0u);
  EXPECT_EQ(slot.users_in(2).size(), 2u);
  EXPECT_EQ(slot.total_users(), 3u);
  EXPECT_EQ(slot.group_counts(), (std::vector<std::size_t>{1, 0, 2}));
}

TEST(TimeSlot, UnknownGroupThrows) {
  time_slot slot{2};
  EXPECT_THROW(slot.add_user(2, 1), std::out_of_range);
  EXPECT_THROW(slot.users_in(5), std::out_of_range);
}

TEST(TimeSlot, EqualityComparesContents) {
  time_slot a{2};
  time_slot b{2};
  EXPECT_EQ(a, b);
  a.add_user(0, 1);
  EXPECT_NE(a, b);
  b.add_user(0, 1);
  EXPECT_EQ(a, b);
}

TEST(GroupDistance, ZeroForIdenticalGroups) {
  time_slot a{1};
  time_slot b{1};
  a.add_user(0, 1);
  a.add_user(0, 2);
  b.add_user(0, 2);
  b.add_user(0, 1);  // same set, different insertion order
  EXPECT_EQ(group_distance(a, b, 0), 0u);
}

TEST(GroupDistance, CountsUserChurn) {
  time_slot a{1};
  time_slot b{1};
  a.add_user(0, 1);
  a.add_user(0, 2);
  b.add_user(0, 2);
  b.add_user(0, 3);
  // Sorted sequences {1,2} vs {2,3}: substitute both ends -> 2.
  EXPECT_EQ(group_distance(a, b, 0), 2u);
}

TEST(GroupDistance, EmptyVsPopulated) {
  time_slot a{1};
  time_slot b{1};
  b.add_user(0, 1);
  b.add_user(0, 2);
  b.add_user(0, 3);
  EXPECT_EQ(group_distance(a, b, 0), 3u);
}

TEST(SlotDistance, SumsAcrossGroups) {
  time_slot a{3};
  time_slot b{3};
  a.add_user(0, 1);         // group 0: {1} vs {} -> 1
  b.add_user(1, 7);         // group 1: {} vs {7} -> 1
  a.add_user(2, 3);         // group 2: {3} vs {3} -> 0
  b.add_user(2, 3);
  EXPECT_EQ(slot_distance(a, b), 2u);
}

TEST(SlotDistance, ZeroForEqualSlots) {
  time_slot a{2};
  a.add_user(0, 1);
  a.add_user(1, 2);
  EXPECT_EQ(slot_distance(a, a), 0u);
}

TEST(SlotDistance, GroupCountMismatchThrows) {
  time_slot a{2};
  time_slot b{3};
  EXPECT_THROW(slot_distance(a, b), std::invalid_argument);
}

TEST(SlotDistance, SymmetricOverRandomSlots) {
  mca::util::rng rng{11};
  for (int round = 0; round < 30; ++round) {
    time_slot a{4};
    time_slot b{4};
    for (int i = 0; i < 20; ++i) {
      // User before group: the order GCC gave these draws when they were
      // two unsequenced arguments, so the slots stay the same.
      for (time_slot* slot : {&a, &b}) {
        const auto user = static_cast<user_id>(rng.uniform_int(0, 15));
        const auto group = static_cast<group_id>(rng.uniform_int(0, 3));
        slot->add_user(group, user);
      }
    }
    EXPECT_EQ(slot_distance(a, b), slot_distance(b, a));
  }
}

/// The retired evidence path, kept as the reference for slot_accumulator:
/// one push_back per traced request into its group's list, then a copy,
/// sort and unique per group at the boundary.
class pushed_evidence {
 public:
  pushed_evidence(std::size_t group_count, util::time_ms slot_length)
      : users_(group_count), slot_length_{slot_length},
        window_end_{slot_length} {}

  void record(util::time_ms logged_at, util::time_ms created_at, user_id user,
              group_id group) {
    if (created_at >= window_start_ && logged_at < window_end_ &&
        group < users_.size()) {
      users_[group].push_back(user);
    }
  }

  time_slot take() {
    time_slot slot{users_.size()};
    for (std::size_t g = 0; g < users_.size(); ++g) {
      std::vector<user_id> sorted = users_[g];
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      for (const user_id u : sorted) {
        slot.add_user(static_cast<group_id>(g), u);
      }
      users_[g].clear();
    }
    window_start_ = window_end_;
    window_end_ += slot_length_;
    return slot;
  }

 private:
  std::vector<std::vector<user_id>> users_;
  util::time_ms slot_length_;
  util::time_ms window_start_ = 0.0;
  util::time_ms window_end_;
};

TEST(SlotAccumulator, EqualsThePushSortUniquePath) {
  // Four groups over 200 users (user 199, the last, sits in a partly
  // used last word), 100 ms windows.  Records land in a few windows
  // around the current one, so some were created before it or logged at
  // or after its end; groups run one past the range; users repeat within
  // and across groups.
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kUsers = 200;
  constexpr util::time_ms kSlot = 100.0;
  slot_accumulator bits{kGroups, kUsers, kSlot};
  pushed_evidence pushed{kGroups, kSlot};
  util::rng rng{17};
  std::size_t kept = 0;
  for (int window = 0; window < 6; ++window) {
    const util::time_ms start = kSlot * window;
    for (int i = 0; i < 400; ++i) {
      const util::time_ms created = start + rng.uniform(-0.5, 1.0) * kSlot;
      const util::time_ms logged = created + rng.uniform(0.0, 0.6) * kSlot;
      const auto user = static_cast<user_id>(
          i % 50 == 0 ? kUsers - 1 : rng.uniform_int(0, 60));
      const auto group =
          static_cast<group_id>(rng.uniform_int(0, kGroups));  // incl. 4
      bits.record(logged, created, user, group);
      pushed.record(logged, created, user, group);
    }
    // Records on the window's edges: created at its start (kept), logged
    // at its end (dropped).
    bits.record(start + 1.0, start, kUsers - 1, 0);
    pushed.record(start + 1.0, start, kUsers - 1, 0);
    bits.record(start + kSlot, start + 1.0, 3, 1);
    pushed.record(start + kSlot, start + 1.0, 3, 1);

    const time_slot got = bits.take();
    const time_slot want = pushed.take();
    EXPECT_EQ(got, want) << "window " << window;
    EXPECT_EQ(got.user_capacity(), got.total_users()) << "window " << window;
    ASSERT_FALSE(got.users_in(0).empty());
    EXPECT_EQ(got.users_in(0).back(), kUsers - 1) << "window " << window;
    kept += got.total_users();
  }
  EXPECT_GT(kept, 600u);
}

TEST(SlotAccumulator, IgnoresUsersOutsideThePopulation) {
  slot_accumulator bits{2, 64, 10.0};
  bits.record(1.0, 0.0, 64, 1);
  bits.record(1.0, 0.0, 63, 1);
  const time_slot slot = bits.take();
  ASSERT_EQ(slot.users_in(1).size(), 1u);
  EXPECT_EQ(slot.users_in(1)[0], 63u);
  EXPECT_TRUE(bits.take().empty());  // take() cleared the bitsets
}

}  // namespace
}  // namespace mca::trace
