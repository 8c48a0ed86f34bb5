#include "core/acceleration.h"

#include <stdexcept>

namespace mca::core {

acceleration_map::acceleration_map(std::vector<acceleration_group> groups)
    : groups_{std::move(groups)} {
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].id != i) {
      throw std::invalid_argument{
          "acceleration_map: group ids must be dense and ordered"};
    }
  }
}

group_id acceleration_map::group_of(const std::string& type_name) const {
  for (const auto& g : groups_) {
    for (const auto& name : g.type_names) {
      if (name == type_name) return g.id;
    }
  }
  throw std::out_of_range{"acceleration_map: type '" + type_name +
                          "' not classified"};
}

group_id acceleration_map::max_group() const {
  if (groups_.empty()) {
    throw std::logic_error{"acceleration_map: no groups"};
  }
  return groups_.back().id;
}

}  // namespace mca::core
