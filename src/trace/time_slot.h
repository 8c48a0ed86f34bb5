// Time slots: the unit of evidence for workload prediction.
//
// A slot covers one fixed-length window and records, per acceleration
// group, the set of users that offloaded at that level during the window
// (§IV-A: "each acceleration group at a time period t contains a certain
// number of users or an empty set").  Users are kept sorted and unique so
// slot comparison is deterministic.  A running system streams its
// evidence into a slot_accumulator, one bit per (group, user), and turns
// it into a time_slot at each boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.h"
#include "util/sim_time.h"

namespace mca::trace {

/// Per-group user assignments of one time window.
class time_slot {
 public:
  /// Creates a slot with groups [0, group_count).
  explicit time_slot(std::size_t group_count);

  /// Records that `user` offloaded at level `group` during this window.
  /// Duplicate (group, user) pairs are absorbed.  Throws std::out_of_range
  /// for an unknown group.
  void add_user(group_id group, user_id user);

  std::size_t group_count() const noexcept { return groups_.size(); }
  /// Sorted, de-duplicated users of a group.
  std::span<const user_id> users_in(group_id group) const;
  /// Users summed over groups (a user may count once per group it used).
  std::size_t total_users() const noexcept;
  /// Per-group cardinalities, index = group id.
  std::vector<std::size_t> group_counts() const;
  bool empty() const noexcept { return total_users() == 0; }
  /// Users the groups have room for without reallocating, summed over
  /// groups: equals total_users() for a slot slot_accumulator::take()
  /// built, which sizes every group exactly.
  std::size_t user_capacity() const noexcept;

  friend bool operator==(const time_slot& a, const time_slot& b) = default;

 private:
  friend class slot_accumulator;
  std::vector<std::vector<user_id>> groups_;
};

/// Streaming evidence of the current slot window: one bitset over users
/// [0, user_count) per group, 1 bit per user per group.  record() sets a
/// bit (no allocation, duplicates absorbed); take() scans every bitset in
/// ascending user order into an exact-size, sorted and unique time_slot,
/// clears it and moves the window one slot on.  The result equals
/// time_slot::add_user() over every recorded (group, user) pair.
class slot_accumulator {
 public:
  /// No groups and no users: ignores every record.
  slot_accumulator() = default;
  /// Groups [0, group_count) over users [0, user_count); the first window
  /// is [0, slot_length).
  slot_accumulator(std::size_t group_count, std::size_t user_count,
                   util::time_ms slot_length);

  /// Records a request of `user` served in `group`: it counts toward the
  /// slot its creation time falls in, and only if it was logged before
  /// that slot's boundary, so a record logged at exactly the window's end
  /// belongs to no window.  Records of a group or user outside the
  /// accumulator's ranges are ignored.
  // mca:hot-path-begin(slot-evidence)
  void record(util::time_ms logged_at, util::time_ms created_at, user_id user,
              group_id group) noexcept {
    if (created_at >= window_start_ && logged_at < window_end_ &&
        group < group_count_ && user < user_count_) {
      bits_[group * words_per_group_ + user / 64] |= std::uint64_t{1}
                                                     << (user % 64);
    }
  }
  // mca:hot-path-end

  /// The window's slot; clears the bitsets and starts the next window.
  time_slot take();

 private:
  std::size_t group_count_ = 0;
  std::size_t user_count_ = 0;
  std::size_t words_per_group_ = 0;
  util::time_ms slot_length_ = 0.0;
  util::time_ms window_start_ = 0.0;
  util::time_ms window_end_ = 0.0;
  std::vector<std::uint64_t> bits_;  ///< group g's words at g * words_per_group_
};

/// δ of §IV-B.1: 0 when the two groups hold identical user sets, otherwise
/// the edit distance between their (sorted) user sequences.
std::size_t group_distance(const time_slot& a, const time_slot& b,
                           group_id group);

/// Δ of §IV-B.1: the sum of per-group distances.  Throws
/// std::invalid_argument when slot group counts differ.
std::size_t slot_distance(const time_slot& a, const time_slot& b);

}  // namespace mca::trace
