// Perf harness for the control-path hot spots: event-engine throughput,
// PS backend event math, simplex pivot rate, and end-to-end allocate_ilp
// latency, each timed best-of-N in isolation.  Emits machine-readable
// BENCH_micro_ops.json (path overridable via argv[1]) so the perf
// trajectory is tracked PR over PR; end-to-end claims are measured by
// mca_bench instead.
//
// Usage: micro_ops [output.json]
// Any other argument, and any that starts with '-' (--help), exits 2
// before the bench runs or writes anything.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cloud/instance.h"
#include "core/allocator.h"
#include "exp/bench_clock.h"
#include "ilp/simplex.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace {

using namespace mca;
using exp::best_seconds;

/// Deterministic 64-bit mix so every trial sees identical event times.
std::uint64_t splitmix(std::uint64_t& state) {
  return util::splitmix64(state);
}

constexpr int kEventCount = 200'000;
constexpr int kTrials = 5;

/// Steady-state event loop, the shape the simulators actually produce: a
/// fixed population of pending events (completions, timers) where every
/// fired event schedules a successor at a pseudo-random future time.
std::size_t event_steady_state_workload() {
  sim::simulation sim;
  constexpr int kPopulation = 16'384;
  std::uint64_t seed = 42;
  struct rearm {
    sim::simulation& sim;
    std::uint64_t& seed;
    std::size_t remaining;
    void operator()() {
      if (remaining == 0) return;
      const double delta = 1.0 + static_cast<double>(splitmix(seed) % 10'000u);
      sim.schedule_after(delta, rearm{sim, seed, remaining - 1});
    }
  };
  constexpr std::size_t kChain = kEventCount / kPopulation;
  for (int i = 0; i < kPopulation; ++i) {
    const double at = static_cast<double>(splitmix(seed) % 10'000u);
    sim.schedule_at(at, rearm{sim, seed, kChain});
  }
  sim.run();
  return sim.executed_events();
}

/// Worst-case burst: schedule kEventCount no-op events at pseudo-random
/// times, then drain the full heap.
std::size_t event_burst_workload() {
  sim::simulation sim;
  std::uint64_t seed = 42;
  for (int i = 0; i < kEventCount; ++i) {
    const double at = static_cast<double>(splitmix(seed) % 1'000'000u);
    sim.schedule_at(at, [] {});
  }
  sim.run();
  return sim.executed_events();
}

/// The closed-loop request pattern that dominates the paper's experiments:
/// every request schedules a completion plus a timeout timer, and the
/// completion cancels the timeout (requests finish before their deadline).
/// Per fired event: two schedules and one cancellation.
std::size_t event_request_workload() {
  sim::simulation sim;
  constexpr std::uint32_t kInFlight = 8'192;
  struct context {
    sim::simulation& sim;
    std::uint64_t seed = 11;
    std::vector<sim::event_handle> timeouts;
  } ctx{sim, 11, std::vector<sim::event_handle>(kInFlight)};
  struct complete {
    context* c;
    std::uint32_t lane;
    std::uint32_t remaining;
    void operator()() const {
      c->sim.cancel(c->timeouts[lane]);  // finished before the deadline
      if (remaining == 0) return;
      const double service =
          1.0 + static_cast<double>(splitmix(c->seed) % 200u);
      c->sim.schedule_after(service, complete{c, lane, remaining - 1});
      c->timeouts[lane] = c->sim.schedule_after(service + 500.0, [] {});
    }
  };
  constexpr std::uint32_t kChain = kEventCount / kInFlight;
  for (std::uint32_t lane = 0; lane < kInFlight; ++lane) {
    const double at = 1.0 + static_cast<double>(splitmix(ctx.seed) % 200u);
    sim.schedule_at(at, complete{&ctx, lane, kChain});
    ctx.timeouts[lane] = sim.schedule_at(at + 500.0, [] {});
  }
  sim.run();
  return sim.executed_events();
}

/// Timer-churn pattern: every scheduled event displaces an older one, the
/// way RTT/keepalive timers are rearmed; half the handles get cancelled.
std::size_t event_cancel_workload() {
  sim::simulation sim;
  std::uint64_t seed = 7;
  std::vector<sim::event_handle> window(64);
  for (int i = 0; i < kEventCount; ++i) {
    const double at = static_cast<double>(splitmix(seed) % 1'000'000u);
    const std::size_t slot = static_cast<std::size_t>(i) % window.size();
    if (window[slot].valid()) sim.cancel(window[slot]);
    window[slot] = sim.schedule_at(at, [] {});
  }
  sim.run();
  // Almost every schedule is later cancelled; the interesting rate is
  // schedule+cancel ops, not the 64 surviving events.
  return sim.executed_events() == window.size() ? kEventCount : 0;
}

/// Backend PS workload: a c5.xlarge-shaped server under a closed loop
/// (every completion resubmits) holding ~192 requests in flight, deep
/// enough that the per-event cost of the PS math is the signal.
constexpr int kBackendOps = 60'000;
constexpr int kBackendInFlight = 192;

cloud::instance_type backend_type() {
  cloud::instance_type t;
  t.name = "bench.backend";
  t.vcpus = 4.0;
  t.memory_gb = 64.0;
  t.cost_per_hour = 0.2;
  t.speed_factor = 1.0;
  t.jitter_sigma = 0.25;
  t.steal_max = 0.3;
  t.baseline_fraction = 1.0;
  return t;
}

std::uint64_t backend_workload() {
  sim::simulation sim;
  cloud::instance server{sim, 1, backend_type(), util::rng{2024}};
  std::uint64_t seed = 99;
  std::uint64_t budget = kBackendOps;
  std::uint64_t completed = 0;
  std::function<void(double, bool)> on_done = [&](double, bool) {
    ++completed;
    if (budget == 0) return;
    --budget;
    const double work = 1.0 + static_cast<double>(splitmix(seed) % 200u);
    server.submit(work, on_done);
  };
  for (int i = 0; i < kBackendInFlight; ++i) {
    const double work = 1.0 + static_cast<double>(splitmix(seed) % 200u);
    server.submit(work, on_done);
  }
  sim.run();
  return completed;
}

/// A mid-size allocation-shaped LP: 24 columns, capacity rows per group
/// plus a shared cap, fractional optimum.
ilp::problem make_lp() {
  ilp::problem p;
  std::vector<std::size_t> vars;
  for (int g = 0; g < 6; ++g) {
    for (int c = 0; c < 4; ++c) {
      const double cost = 0.05 + 0.11 * c + 0.015 * g;
      vars.push_back(p.add_variable(cost, 0.0, 30.0));
    }
  }
  for (int g = 0; g < 6; ++g) {
    std::vector<ilp::linear_term> terms;
    for (int c = 0; c < 4; ++c) {
      terms.push_back({vars[static_cast<std::size_t>(4 * g + c)],
                       7.0 + 9.0 * c + 1.3 * g});
    }
    p.add_constraint(std::move(terms), ilp::relation::greater_equal,
                     41.0 + 23.0 * g);
  }
  std::vector<ilp::linear_term> cap;
  for (const auto v : vars) cap.push_back({v, 1.0});
  p.add_constraint(std::move(cap), ilp::relation::less_equal, 120.0);
  return p;
}

/// The acceptance workload: 8 groups x 4 candidates under a shared cap.
core::allocation_request make_8x4_request() {
  core::allocation_request request;
  request.max_total_instances = 64;
  for (int g = 0; g < 8; ++g) {
    request.workload_per_group.push_back(22.0 + 13.0 * g);
    std::vector<core::allocation_candidate> candidates;
    for (int c = 0; c < 4; ++c) {
      core::allocation_candidate cand;
      cand.type_name = "type" + std::to_string(c) + ".g" + std::to_string(g);
      cand.capacity_per_instance = 9.0 + 17.0 * c + 1.7 * g;
      cand.cost_per_hour = 0.02 + 0.055 * c * c + 0.004 * g;
      candidates.push_back(cand);
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  return request;
}

/// Fleet-scale allocation: 64 groups x 8 candidate tiers under one
/// account cap — 512 integer columns against a 65-row tableau (the
/// explicit-row formulation would need 577 rows).  Capacity tiers are 13
/// apart with tier 1 the best capacity-per-dollar everywhere; most groups'
/// demands sit on that tier's quantum (integral LP vertices, the common
/// case for a provisioned fleet) and every 16th group lands off-quantum,
/// so the solve still branches through warm-started dual re-optimizations
/// rather than finishing at the root.
core::allocation_request make_64x8_request() {
  core::allocation_request request;
  constexpr int kGroups = 64;
  request.max_total_instances = 8 * kGroups;
  for (int g = 0; g < kGroups; ++g) {
    const int quanta = 1 + (g % 5);
    double workload = 21.0 * quanta - 1.0;
    if (g % 16 == 0) workload += 9.0;
    request.workload_per_group.push_back(workload);
    std::vector<core::allocation_candidate> candidates;
    for (int c = 0; c < 8; ++c) {
      core::allocation_candidate cand;
      cand.type_name = "tier" + std::to_string(c);
      cand.capacity_per_instance = 8.0 + 13.0 * c;
      cand.cost_per_hour = (0.02 + 0.03 * c * c) * (1.0 + 0.02 * (g % 5));
      candidates.push_back(cand);
    }
    request.candidates_per_group.push_back(std::move(candidates));
  }
  return request;
}

using bench::series_entry;

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "micro_ops: unknown argument '%s'; usage: "
                         "micro_ops [output.json]\n", argv[argc - 1]);
    return 2;
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_micro_ops.json";
  std::vector<series_entry> series;
  bench::check_list checks;

  // ---- event engine ------------------------------------------------------
  // Four workloads: the closed-loop request pattern (schedule + timeout +
  // cancel per event) is the shape §V's experiments actually produce; the
  // rest chart the engine from other angles.
  const auto event_series = [&](const char* title, const char* name,
                                std::size_t (*workload)()) {
    bench::section(title);
    std::size_t executed = 0;
    const double t = best_seconds(kTrials, [&] { executed = workload(); });
    series.push_back({name, "events/sec", static_cast<double>(executed) / t});
    std::printf("%12.0f events/sec\n", series.back().current);
  };

  event_series("event engine: request/timeout/cancel loop (primary)",
               "event_throughput", event_request_workload);
  event_series("event engine: steady-state rearm, no cancels",
               "event_steady_state", event_steady_state_workload);
  event_series("event engine: burst schedule + full drain", "event_burst",
               event_burst_workload);
  event_series("event engine: cancellation churn (schedule+cancel ops)",
               "event_cancel_churn", event_cancel_workload);

  // ---- processor-sharing backend -----------------------------------------
  bench::section("backend: PS event math (virtual-time clock)");
  {
    std::uint64_t completions = 0;
    const double t =
        best_seconds(kTrials, [&] { completions = backend_workload(); });
    series.push_back({"backend_event", "ns/op",
                      1e9 * t / static_cast<double>(completions)});
    std::printf("%10.1f ns/op\n", series.back().current);
  }

  // ---- simplex -----------------------------------------------------------
  bench::section("simplex: LP relaxation solves");
  const ilp::problem lp = make_lp();
  constexpr int kLpReps = 400;
  std::size_t pivots = 0;
  const double t_lp = best_seconds(kTrials, [&] {
    pivots = 0;
    for (int i = 0; i < kLpReps; ++i) pivots += ilp::solve_lp(lp).iterations;
  });
  series.push_back({"simplex_solves", "solves/sec", kLpReps / t_lp});
  series.push_back({"simplex_pivots", "pivots/sec",
                    static_cast<double>(pivots) / t_lp});
  std::printf("%12.0f solves/sec  (%.0f pivots/sec)\n", kLpReps / t_lp,
              static_cast<double>(pivots) / t_lp);

  // ---- allocator ---------------------------------------------------------
  bench::section("allocate_ilp: 8 groups x 4 candidates");
  const core::allocation_request request = make_8x4_request();
  constexpr int kIlpReps = 60;
  const double t_ilp = best_seconds(kTrials, [&] {
    for (int i = 0; i < kIlpReps; ++i) (void)core::allocate_ilp(request);
  });
  series.push_back({"allocate_ilp_8x4", "solves/sec", kIlpReps / t_ilp});
  std::printf("%10.1f solves/sec (%.2f ms/solve)\n", kIlpReps / t_ilp,
              1e3 * t_ilp / kIlpReps);

  // ---- allocator at fleet scale ------------------------------------------
  bench::section("allocate_ilp: 64 groups x 8 candidates (fleet scale)");
  const core::allocation_request fleet = make_64x8_request();
  constexpr int kFleetReps = 10;
  core::allocation_plan fleet_plan;
  const double t_fleet = best_seconds(kTrials, [&] {
    for (int i = 0; i < kFleetReps; ++i) {
      fleet_plan = core::allocate_ilp(fleet);
    }
  });
  checks.expect(fleet_plan.status == ilp::solve_status::optimal,
                "allocate_ilp 64x8 solves to optimality in the default "
                "node budget",
                std::string("status = ") + ilp::to_string(fleet_plan.status));
  const double greedy_cost =
      core::allocate_greedy(fleet).total_cost_per_hour;
  checks.expect(
      fleet_plan.total_cost_per_hour <= greedy_cost + 1e-6,
      "allocate_ilp 64x8 plan no costlier than greedy",
      bench::ratio_detail("cost/hour", fleet_plan.total_cost_per_hour));
  series.push_back({"allocate_ilp_64x8", "solves/sec", kFleetReps / t_fleet});
  std::printf("%10.1f solves/sec (%.2f ms/solve, $%.3f/h plan)\n",
              kFleetReps / t_fleet, 1e3 * t_fleet / kFleetReps,
              fleet_plan.total_cost_per_hour);

  const int exit_code = checks.finish("micro_ops");
  if (!bench::write_series_json(out_path, "micro_ops", series,
                                exit_code == 0)) {
    return 1;
  }
  return exit_code;
}
