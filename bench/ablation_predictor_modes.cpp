// Ablation (design-choice check) — the two readings of §IV-B.2 that
// core::workload_predictor implements.
//
// The paper's sentence "t'h is approximated to the timeslot tk that has
// the minimum Δ" admits two implementations: predict tk itself (`match`,
// the literal text) or the slot that followed tk (`successor`, the
// one-step-ahead reading).  This bench scores both — plus a trivial
// persistence baseline (next = current) — on three workload regimes:
// stationary, diurnal, and ramping.  Expectation: on stationary load
// everything ties; on structured load `successor` wins or ties because it
// forecasts the transition, not the state.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/predictor.h"
#include "exp/runner.h"
#include "util/csv.h"
#include "util/rng.h"

namespace {

using namespace mca;

trace::time_slot slot_with(std::size_t count) {
  trace::time_slot slot{2};
  for (std::size_t i = 0; i < count; ++i) {
    slot.add_user(1, static_cast<user_id>(i));
  }
  return slot;
}

std::vector<trace::time_slot> make_history(const std::string& regime,
                                           std::size_t slots,
                                           util::rng& rng) {
  std::vector<trace::time_slot> history;
  for (std::size_t i = 0; i < slots; ++i) {
    std::size_t count = 0;
    if (regime == "stationary") {
      count = 40 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    } else if (regime == "diurnal") {
      const double phase = 2.0 * 3.14159265 * static_cast<double>(i) / 24.0;
      count = static_cast<std::size_t>(40.0 + 30.0 * std::sin(phase) +
                                       rng.uniform(0.0, 3.0));
    } else {  // ramp
      count = 5 + i * 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    }
    history.push_back(slot_with(count));
  }
  return history;
}

/// Persistence baseline: predict that the next slot equals the current.
double persistence_accuracy(const std::vector<trace::time_slot>& history,
                            std::size_t start) {
  double total = 0.0;
  std::size_t scored = 0;
  for (std::size_t i = start; i + 1 < history.size(); ++i) {
    total += core::prediction_accuracy(history[i].group_counts(),
                                       history[i + 1].group_counts());
    ++scored;
  }
  return scored == 0 ? 0.0 : total / static_cast<double>(scored);
}

}  // namespace

int main() {
  using namespace mca;
  bench::check_list checks;

  bench::section("prediction accuracy by mode and workload regime");
  util::csv_writer csv{std::cout,
                       {"regime", "successor_pct", "match_pct",
                        "persistence_pct"}};
  double diurnal_successor = 0.0;
  double diurnal_match = 0.0;
  double ramp_successor = 0.0;
  double ramp_persistence = 0.0;
  double stationary_gap = 0.0;
  const std::vector<std::string> regimes = {"stationary", "diurnal", "ramp"};
  // Three independent regimes, one rng::split stream each, scored on the
  // pool and reported in regime order.
  struct regime_scores {
    double successor = 0.0;
    double match = 0.0;
    double persistence = 0.0;
  };
  exp::thread_pool workers;
  const auto scored =
      exp::parallel_map(workers, regimes.size(), [&](std::size_t i) {
        util::rng rng = util::rng::split(31337, i);
        const auto history = make_history(regimes[i], 72, rng);
        const std::size_t knowledge = 48;
        const auto successor = core::walk_forward_accuracy(
            history, knowledge, core::prediction_mode::successor);
        const auto match = core::walk_forward_accuracy(
            history, knowledge, core::prediction_mode::match);
        return regime_scores{*successor, *match,
                             persistence_accuracy(history, knowledge - 1)};
      });
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    const std::string& regime = regimes[i];
    const double successor = scored[i].successor;
    const double match = scored[i].match;
    const double persistence = scored[i].persistence;
    csv.row_values(regime, successor * 100.0, match * 100.0,
                   persistence * 100.0);
    if (regime == "diurnal") {
      diurnal_successor = successor;
      diurnal_match = match;
    }
    if (regime == "ramp") {
      ramp_successor = successor;
      ramp_persistence = persistence;
    }
    if (regime == "stationary") {
      stationary_gap = std::abs(successor - match);
    }
  }

  checks.expect(stationary_gap < 0.05,
                "modes tie on stationary load",
                bench::ratio_detail("|successor-match|", stationary_gap));
  checks.expect(diurnal_successor >= diurnal_match - 0.01,
                "successor mode matches or beats literal mode on diurnal load",
                bench::ratio_detail("successor-match",
                                    diurnal_successor - diurnal_match));
  checks.expect(diurnal_successor > 0.85,
                "diurnal load is highly predictable with a full period",
                bench::ratio_detail("successor [%]",
                                    diurnal_successor * 100.0));
  // On a monotone ramp the NN can only return the largest load seen — the
  // paper's conservatism remark; persistence (trivially tracking) wins.
  checks.expect(ramp_persistence >= ramp_successor,
                "ramping load exposes the history-bound conservatism",
                bench::ratio_detail("persistence-successor",
                                    ramp_persistence - ramp_successor));
  return checks.finish("ablation_predictor_modes");
}
