#include "core/caas.h"

#include <limits>
#include <stdexcept>

namespace mca::core {
namespace {

const cloud::instance_type& find_type(
    const std::vector<cloud::instance_type>& types, const std::string& name) {
  for (const auto& t : types) {
    if (t.name == name) return t;
  }
  throw std::invalid_argument{"build_price_sheet: type '" + name +
                              "' not in the provided catalog"};
}

}  // namespace

std::vector<caas_plan> build_price_sheet(
    const acceleration_map& map,
    const std::vector<cloud::instance_type>& types,
    const caas_config& config) {
  if (map.group_count() == 0) {
    throw std::invalid_argument{"build_price_sheet: empty acceleration map"};
  }
  if (config.margin < 0.0 || config.active_hours_per_month <= 0.0 ||
      config.utilization_target <= 0.0 || config.utilization_target > 1.0) {
    throw std::invalid_argument{"build_price_sheet: bad config"};
  }

  std::vector<caas_plan> plans;
  for (const auto& group : map.groups()) {
    if (group.id == 0 || group.type_names.empty()) continue;  // not sold
    if (group.capacity_users <= 0.0) continue;

    // Cheapest cost per sellable user among the level's backing types.
    caas_plan plan;
    plan.level = group.id;
    plan.solo_response_ms = group.solo_mean_ms;
    double best_cost_per_user_hour = std::numeric_limits<double>::infinity();
    for (const auto& name : group.type_names) {
      const auto& type = find_type(types, name);
      const double sellable = group.capacity_users * config.utilization_target;
      const double cost_per_user_hour =
          util::to_usd(type.cost_per_hour) / sellable;
      if (cost_per_user_hour < best_cost_per_user_hour) {
        best_cost_per_user_hour = cost_per_user_hour;
        plan.backing_type = name;
        plan.users_per_instance = sellable;
      }
    }
    plan.cost_per_user_month =
        best_cost_per_user_hour * config.active_hours_per_month;
    plan.price_per_user_month = plan.cost_per_user_month * (1.0 + config.margin);
    plans.push_back(plan);
  }
  return plans;
}

upgrade_comparison caas_vs_device_upgrade(double device_price,
                                          const caas_plan& plan) {
  if (device_price <= 0.0) {
    throw std::invalid_argument{"caas_vs_device_upgrade: device price <= 0"};
  }
  if (plan.price_per_user_month <= 0.0) {
    throw std::invalid_argument{"caas_vs_device_upgrade: plan has no price"};
  }
  upgrade_comparison result;
  result.device_price = device_price;
  result.caas_price_per_month = plan.price_per_user_month;
  result.months_of_service = device_price / plan.price_per_user_month;
  return result;
}

}  // namespace mca::core
