// The client-side moderator: promotion of devices between acceleration
// groups.
//
// The paper's architecture puts the promotion decision on the mobile side:
// the moderator "monitors the execution time of the code in the
// application, and promotes the execution of code to a higher level of
// acceleration when it detects that the response time of the application
// starts to degrade".  Its evaluation (§VI-C) runs one rule, and this is
// that rule: every successful response promotes its user one group
// (n -> n+1) with a fixed probability, 1/50 in the paper, until the user
// reaches the top group.  Users never move down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"

namespace mca::client {

/// Tracks each user's current acceleration group and promotes on
/// responses.
class moderator {
 public:
  /// Highest group a user can hold: groups are stored one byte per user.
  static constexpr group_id kMaxGroup = 255;

  /// Users 0..users-1 start in `initial_group` ("initially, each user is
  /// located in the group that provides the lowest acceleration");
  /// `max_group` caps promotion.  Throws std::invalid_argument unless
  /// `promotion_probability` is in [0, 1] (NaN is rejected),
  /// initial_group <= max_group and max_group <= kMaxGroup.
  moderator(double promotion_probability, group_id initial_group,
            group_id max_group, std::size_t users, util::rng rng);

  // Per-request group lookup and per-response promotion: a flat-array
  // read, and one Bernoulli draw per response below the top group (none
  // at the top, so a capped user costs no randomness).
  // mca:hot-path-begin(moderator-promotion)
  /// Current group of a user.
  group_id group_of(user_id user) const noexcept { return groups_[user]; }

  /// Feeds one completed response; may move the user up one group for
  /// its *next* request.
  void record_response(user_id user) noexcept {
    std::uint8_t& group = groups_[user];
    if (group < max_group_ && rng_.bernoulli(promotion_probability_)) {
      ++group;
      ++promotions_;
    }
  }
  // mca:hot-path-end

  /// Number of promotions applied so far across all users.
  std::uint64_t promotions() const noexcept { return promotions_; }

 private:
  double promotion_probability_;
  group_id max_group_;
  util::rng rng_;
  std::vector<std::uint8_t> groups_;  ///< each user's group, <= max_group_
  std::uint64_t promotions_ = 0;
};

}  // namespace mca::client
