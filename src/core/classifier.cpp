#include "core/classifier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/simulation.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace mca::core {
namespace {

/// Two types in one capacity bucket split into different groups when their
/// solo means differ by more than this fraction.
constexpr double kSoloSplitTolerance = 0.15;

/// Mean response at the highest tested load; used for anomaly detection.
double high_load_mean(const type_characterization& c) {
  if (c.curve.empty()) return 0.0;
  return c.curve.back().mean_ms;
}

}  // namespace

type_characterization characterize_type(const cloud::instance_type& type,
                                        const tasks::task_pool& pool,
                                        const classifier_config& config) {
  if (config.load_levels.empty()) {
    throw std::invalid_argument{"characterize_type: no load levels"};
  }
  if (config.rounds_per_level == 0) {
    throw std::invalid_argument{"characterize_type: zero rounds"};
  }
  type_characterization result;
  result.type_name = type.name;
  result.cost_per_hour = type.cost_per_hour;

  util::rng seed_stream{config.seed};
  for (const std::size_t users : config.load_levels) {
    // Fresh simulation and server per level: the paper's cool-down isolates
    // levels; a fresh instance isolates them exactly.
    sim::simulation sim;
    cloud::instance server{sim, 1, type, seed_stream.fork(),
                           config.instance_options};
    cloud::service_time_recorder responses;
    server.set_completion_sink(&responses);
    workload::concurrent_config load;
    load.users = users;
    load.rounds = config.rounds_per_level;
    workload::concurrent_generator generator{
        sim, workload::random_pool_source(pool),
        [&server](const workload::offload_request& request) {
          server.submit(request.work.work_units(), 0);
        },
        load, seed_stream.fork()};
    sim.run();

    if (responses.times.empty()) continue;
    const auto s = util::summary_of(responses.times);
    result.curve.push_back({users, s.mean, s.stddev, s.p5, s.p95});
  }

  for (const auto& point : result.curve) {
    if (point.mean_ms <= config.response_bound_ms) {
      result.capacity_users = std::max(result.capacity_users, point.users);
    }
  }
  result.capacity_requests_per_min =
      static_cast<double>(result.capacity_users);
  result.solo_mean_ms = result.curve.empty() ? 0.0 : result.curve.front().mean_ms;
  return result;
}

acceleration_map classify(std::span<const cloud::instance_type> types,
                          const tasks::task_pool& pool,
                          const classifier_config& config) {
  if (types.empty()) throw std::invalid_argument{"classify: no types"};

  std::vector<type_characterization> profiles;
  profiles.reserve(types.size());
  for (const auto& type : types) {
    profiles.push_back(characterize_type(type, pool, config));
  }

  // Anomaly demotion (the t2.nano/t2.micro case): a type is demoted when a
  // strictly cheaper type of the *same nominal speed class* (solo response
  // within the split tolerance) matches its capacity and clearly beats its
  // high-load latency.  The solo guard keeps genuinely faster-but-cheaper
  // types (c4 vs m4.10xlarge) from demoting slower ones — those belong in
  // different groups, not in the anomaly bin.
  std::vector<bool> demoted(profiles.size(), false);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = 0; j < profiles.size(); ++j) {
      if (i == j) continue;
      const bool cheaper = profiles[j].cost_per_hour < profiles[i].cost_per_hour;
      const bool no_worse_capacity =
          profiles[j].capacity_users >= profiles[i].capacity_users;
      const bool better_latency =
          high_load_mean(profiles[j]) < high_load_mean(profiles[i]) * 0.95;
      const bool same_speed_class =
          std::abs(profiles[j].solo_mean_ms - profiles[i].solo_mean_ms) <=
          profiles[i].solo_mean_ms * kSoloSplitTolerance;
      if (cheaper && no_worse_capacity && better_latency && same_speed_class) {
        demoted[i] = true;
        break;
      }
    }
  }

  // Sort the remaining profiles by (capacity, solo speed) ascending and
  // cut group boundaries where either the capacity bucket changes or the
  // solo mean improves beyond the split tolerance.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (!demoted[i]) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (profiles[a].capacity_users != profiles[b].capacity_users) {
      return profiles[a].capacity_users < profiles[b].capacity_users;
    }
    return profiles[a].solo_mean_ms > profiles[b].solo_mean_ms;
  });

  std::vector<acceleration_group> groups;
  // Group 0 always exists and holds the demoted anomalies.
  acceleration_group anomaly;
  anomaly.id = 0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    if (demoted[i]) {
      anomaly.type_names.push_back(profiles[i].type_name);
      anomaly.capacity_users = std::max(
          anomaly.capacity_users,
          static_cast<double>(profiles[i].capacity_users));
      if (anomaly.solo_mean_ms == 0.0) {
        anomaly.solo_mean_ms = profiles[i].solo_mean_ms;
      }
    }
  }
  groups.push_back(anomaly);

  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& profile = profiles[order[k]];
    bool start_new_group = groups.size() == 1;  // first regular type
    if (!start_new_group) {
      const auto& current = groups.back();
      const bool capacity_differs =
          static_cast<double>(profile.capacity_users) != current.capacity_users;
      const bool solo_improves =
          profile.solo_mean_ms <
          current.solo_mean_ms * (1.0 - kSoloSplitTolerance);
      start_new_group = capacity_differs || solo_improves;
    }
    if (start_new_group) {
      acceleration_group next;
      next.id = static_cast<group_id>(groups.size());
      next.capacity_users = static_cast<double>(profile.capacity_users);
      next.solo_mean_ms = profile.solo_mean_ms;
      groups.push_back(next);
    }
    groups.back().type_names.push_back(profile.type_name);
    groups.back().capacity_users =
        std::max(groups.back().capacity_users,
                 static_cast<double>(profile.capacity_users));
  }
  return acceleration_map{std::move(groups)};
}

}  // namespace mca::core
