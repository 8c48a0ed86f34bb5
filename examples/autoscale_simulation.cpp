// Autoscale simulation: the closed loop of predict -> allocate -> route.
//
// Runs a six-hour deployment with a usage-study-driven workload.  At every
// provisioning hour the predictor forecasts each group's user count from
// the trace log and the ILP reshapes the fleet under the account cap, all
// against hourly billing — §IV's adaptive model end to end.
#include <cstdio>
#include <memory>

#include "client/usage_trace.h"
#include "core/system.h"
#include "workload/generator.h"

int main() {
  using namespace mca;

  tasks::task_pool pool;

  // Inter-arrival gaps learned from the synthetic 6-participant study,
  // mixed with between-session idle periods (sessions are bursty).
  auto study = std::make_shared<util::empirical_distribution>(
      client::study_interarrival_distribution({}, 77));
  auto session_gaps = [study](util::rng& rng) {
    if (rng.bernoulli(0.85)) return study->sample(rng);
    return util::minutes(rng.uniform(4.0, 25.0));  // idle between sessions
  };

  core::system_config config;
  config.groups = {
      {1, "t2.nano", 1, 10.0},
      {2, "t2.large", 1, 40.0},
      {3, "m4.4xlarge", 1, 100.0},
  };
  config.user_count = 100;
  config.tasks = workload::random_pool_source(pool);
  config.gaps = session_gaps;
  config.slot_length = util::hours(1);
  config.max_total_instances = 20;  // Amazon's default account cap
  config.background_requests_per_burst = 10;
  config.seed = 42;

  core::offloading_system system{config, pool};
  std::printf("running 6 simulated hours with %zu users...\n\n",
              config.user_count);
  system.run(util::hours(6));

  std::printf("%-6s %-22s %-22s %-9s %-10s\n", "hour", "actual users/group",
              "predicted next", "accuracy", "fleet");
  for (const auto& slot : system.metrics().slots) {
    char actual[64];
    std::snprintf(actual, sizeof actual, "[%zu %zu %zu %zu]",
                  slot.actual_counts[0], slot.actual_counts[1],
                  slot.actual_counts[2], slot.actual_counts[3]);
    char predicted[64] = "-";
    if (slot.predicted_counts) {
      std::snprintf(predicted, sizeof predicted, "[%zu %zu %zu %zu]",
                    (*slot.predicted_counts)[0], (*slot.predicted_counts)[1],
                    (*slot.predicted_counts)[2], (*slot.predicted_counts)[3]);
    }
    char accuracy[16] = "-";
    if (slot.accuracy) {
      std::snprintf(accuracy, sizeof accuracy, "%.1f%%",
                    *slot.accuracy * 100.0);
    }
    char fleet[32] = "-";
    if (slot.plan) {
      std::snprintf(fleet, sizeof fleet, "%zu inst $%.3f/h",
                    slot.plan->total_instances(),
                    util::to_usd(slot.plan->total_cost_per_hour));
    }
    std::printf("%-6zu %-22s %-22s %-9s %-10s\n", slot.slot_index + 1, actual,
                predicted, accuracy, fleet);
  }

  const auto& metrics = system.metrics();
  std::printf("\nrequests served: %zu   promotions: %llu   total cost: $%.3f\n",
              metrics.requests.size(),
              static_cast<unsigned long long>(metrics.promotions),
              metrics.total_cost_usd);
  if (const auto accuracy = metrics.mean_prediction_accuracy()) {
    std::printf("mean prediction accuracy: %.1f%%\n", *accuracy * 100.0);
  }
  return 0;
}
