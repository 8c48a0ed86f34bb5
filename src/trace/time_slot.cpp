#include "trace/time_slot.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "trace/edit_distance.h"

namespace mca::trace {

time_slot::time_slot(std::size_t group_count) : groups_(group_count) {}

void time_slot::add_user(group_id group, user_id user) {
  if (group >= groups_.size()) {
    throw std::out_of_range{"time_slot: unknown group"};
  }
  auto& users = groups_[group];
  const auto pos = std::lower_bound(users.begin(), users.end(), user);
  if (pos != users.end() && *pos == user) return;
  users.insert(pos, user);
}

std::span<const user_id> time_slot::users_in(group_id group) const {
  if (group >= groups_.size()) {
    throw std::out_of_range{"time_slot: unknown group"};
  }
  return groups_[group];
}

std::size_t time_slot::total_users() const noexcept {
  std::size_t total = 0;
  for (const auto& users : groups_) total += users.size();
  return total;
}

std::size_t time_slot::user_capacity() const noexcept {
  std::size_t total = 0;
  for (const auto& users : groups_) total += users.capacity();
  return total;
}

std::vector<std::size_t> time_slot::group_counts() const {
  std::vector<std::size_t> counts(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) counts[g] = groups_[g].size();
  return counts;
}

slot_accumulator::slot_accumulator(std::size_t group_count,
                                   std::size_t user_count,
                                   util::time_ms slot_length)
    : group_count_{group_count},
      user_count_{user_count},
      words_per_group_{(user_count + 63) / 64},
      slot_length_{slot_length},
      window_end_{slot_length},
      bits_(group_count * words_per_group_, 0) {}

time_slot slot_accumulator::take() {
  time_slot slot{group_count_};
  for (std::size_t g = 0; g < group_count_; ++g) {
    const std::span<std::uint64_t> words{
        bits_.data() + g * words_per_group_, words_per_group_};
    std::size_t count = 0;
    for (const std::uint64_t word : words) {
      count += static_cast<std::size_t>(std::popcount(word));
    }
    std::vector<user_id>& users = slot.groups_[g];
    users.reserve(count);
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
        users.push_back(
            static_cast<user_id>(w * 64 + std::countr_zero(word)));
      }
      words[w] = 0;
    }
  }
  window_start_ = window_end_;
  window_end_ += slot_length_;
  return slot;
}

std::size_t group_distance(const time_slot& a, const time_slot& b,
                           group_id group) {
  const auto ua = a.users_in(group);
  const auto ub = b.users_in(group);
  if (ua.size() == ub.size() && std::equal(ua.begin(), ua.end(), ub.begin())) {
    return 0;
  }
  return edit_distance(ua, ub);
}

std::size_t slot_distance(const time_slot& a, const time_slot& b) {
  if (a.group_count() != b.group_count()) {
    throw std::invalid_argument{"slot_distance: group count mismatch"};
  }
  std::size_t total = 0;
  for (group_id g = 0; g < a.group_count(); ++g) {
    total += group_distance(a, b, g);
  }
  return total;
}

}  // namespace mca::trace
