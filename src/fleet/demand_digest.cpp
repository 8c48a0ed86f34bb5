#include "fleet/demand_digest.h"

#include <stdexcept>

namespace mca::fleet {

double fleet_demand::total() const noexcept {
  double sum = 0.0;
  for (const double d : demand_per_group) sum += d;
  return sum;
}

fleet_demand combine(std::span<const demand_digest> digests,
                     std::size_t group_count) {
  fleet_demand fleet;
  fleet.demand_per_group.assign(group_count, 0.0);
  for (const auto& digest : digests) {
    if (!digest.has_prediction) continue;
    if (digest.demand_per_group.size() > group_count) {
      throw std::invalid_argument{
          "fleet::combine: digest wider than the fleet's group count"};
    }
    ++fleet.predicting_shards;
    for (std::size_t g = 0; g < digest.demand_per_group.size(); ++g) {
      fleet.demand_per_group[g] += digest.demand_per_group[g];
    }
  }
  return fleet;
}

}  // namespace mca::fleet
