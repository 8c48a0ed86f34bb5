// Ablation (no paper figure; §IV-C's cost claim) — what the ILP buys over
// simpler provisioning policies across a diurnal day.
//
// A 24-hour predicted workload (diurnal, three groups, promotion drift)
// is fed to four allocation policies; the daily bill and any uncovered
// demand are compared:
//   * ilp         — the paper's optimizer (exact, per-hour)
//   * greedy      — best capacity-per-dollar heuristic
//   * static-peak — provision every hour for the daily peak (no model)
//   * capped      — ILP under a tight CC=6 cap (best-effort fallback)
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/allocator.h"
#include "exp/runner.h"
#include "util/csv.h"

namespace {

/// Diurnal user-count profile for 24 hours (evening peak).
double diurnal_users(double hour, double peak) {
  const double morning = std::exp(-std::pow(hour - 10.0, 2.0) / 18.0);
  const double evening = std::exp(-std::pow(hour - 20.0, 2.0) / 8.0);
  return peak * std::min(1.0, 0.55 * morning + evening + 0.05);
}

}  // namespace

int main() {
  using namespace mca;
  bench::check_list checks;

  // Candidates per group: the Fig. 9a deployment with measured Ks values
  // (prices in $0.0001 per hour).
  core::allocation_request base;
  base.workload_per_group = {0.0, 0.0, 0.0};
  base.candidates_per_group = {
      {{"t2.nano", 10.0, 63}, {"t2.small", 10.0, 250}},
      {{"t2.medium", 40.0, 500}, {"t2.large", 40.0, 1'010}},
      {{"m4.4xlarge", 100.0, 8'880}, {"m4.10xlarge", 100.0, 22'200}},
  };

  util::money cost_ilp = 0;
  util::money cost_greedy = 0;
  util::money cost_static = 0;
  util::money cost_capped = 0;
  std::size_t capped_uncovered_hours = 0;
  double peak_total = 0.0;
  std::vector<std::vector<double>> hourly(24);
  for (int hour = 0; hour < 24; ++hour) {
    // Promotion drift: later hours shift weight to higher groups.
    const double drift = static_cast<double>(hour) / 24.0;
    const double total = diurnal_users(hour, 120.0);
    hourly[hour] = {total * (0.6 - 0.3 * drift), total * 0.3,
                    total * (0.1 + 0.3 * drift)};
    peak_total = std::max(peak_total, total);
  }

  // Each hour is an independent four-policy solve; fan the day out over
  // the pool and fold the bills back in hour order.
  struct hour_costs {
    util::money ilp = 0;
    util::money greedy = 0;
    util::money fixed = 0;
    util::money capped = 0;
    bool capped_uncovered = false;
  };
  exp::thread_pool workers;
  const auto day = exp::parallel_map(workers, 24, [&](std::size_t hour) {
    auto request = base;
    request.workload_per_group = hourly[hour];

    const auto ilp = core::allocate_ilp(request);
    const auto greedy = core::allocate_greedy(request);
    // Static peak: every group provisioned for the largest total ever seen.
    const auto fixed = core::allocate_static_peak(request, peak_total);
    auto capped_request = request;
    capped_request.max_total_instances = 6;
    const auto capped = core::allocate_ilp(capped_request);

    return hour_costs{ilp.total_cost_per_hour, greedy.total_cost_per_hour,
                      fixed.total_cost_per_hour, capped.total_cost_per_hour,
                      !capped.feasible};
  });

  bench::section("hourly allocation cost by policy");
  util::csv_writer csv{std::cout,
                       {"hour", "users_g1", "users_g2", "users_g3",
                        "ilp_cost", "greedy_cost", "static_cost",
                        "capped_cost"}};
  for (int hour = 0; hour < 24; ++hour) {
    const auto& costs = day[static_cast<std::size_t>(hour)];
    cost_ilp += costs.ilp;
    cost_greedy += costs.greedy;
    cost_static += costs.fixed;
    cost_capped += costs.capped;
    if (costs.capped_uncovered) ++capped_uncovered_hours;

    csv.row_values(hour, hourly[hour][0], hourly[hour][1], hourly[hour][2],
                   util::to_usd(costs.ilp), util::to_usd(costs.greedy),
                   util::to_usd(costs.fixed), util::to_usd(costs.capped));
  }

  bench::section("daily bill");
  std::printf("ilp          $%7.3f\n", util::to_usd(cost_ilp));
  std::printf("greedy       $%7.3f\n", util::to_usd(cost_greedy));
  std::printf("static-peak  $%7.3f\n", util::to_usd(cost_static));
  std::printf("capped CC=6  $%7.3f  (%zu/24 hours left demand uncovered)\n",
              util::to_usd(cost_capped), capped_uncovered_hours);

  // `name`'s ratio of `cost` to the ILP's bill.
  const auto over_ilp = [cost_ilp](const char* name, util::money cost) {
    return bench::ratio_detail(
        name, static_cast<double>(cost) / static_cast<double>(cost_ilp));
  };
  checks.expect(cost_ilp <= cost_greedy,
                "ILP never pays more than the greedy heuristic",
                over_ilp("greedy/ilp", cost_greedy));
  checks.expect(cost_ilp * 10 < cost_static * 8,
                "the adaptive model beats static peak provisioning by >20%",
                over_ilp("static/ilp", cost_static));
  checks.expect(capped_uncovered_hours > 0,
                "a too-tight account cap forces best-effort hours",
                std::to_string(capped_uncovered_hours) + " hours");
  checks.expect(cost_capped <= cost_ilp,
                "the capped plan cannot exceed the uncapped optimum's bill",
                over_ilp("capped/ilp", cost_capped));
  return checks.finish("ablation_allocator_cost");
}
