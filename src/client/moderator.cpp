#include "client/moderator.h"

#include <stdexcept>

namespace mca::client {

moderator::moderator(double promotion_probability, group_id initial_group,
                     group_id max_group, std::size_t users, util::rng rng)
    : promotion_probability_{promotion_probability},
      max_group_{max_group},
      rng_{rng},
      groups_(users, static_cast<std::uint8_t>(initial_group)) {
  if (!(promotion_probability >= 0.0 && promotion_probability <= 1.0)) {
    throw std::invalid_argument{
        "moderator: promotion probability outside [0,1]"};
  }
  if (initial_group > max_group) {
    throw std::invalid_argument{"moderator: initial group above max"};
  }
  if (max_group > kMaxGroup) {
    throw std::invalid_argument{"moderator: max group above 255"};
  }
}

}  // namespace mca::client
