#include "traced.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exp/bench_clock.h"
#include "exp/runner.h"
#include "fleet/coordinator.h"
#include "fleet/fleet_runner.h"
#include "obs/exemplar.h"
#include "obs/timeline.h"

namespace mca_bench {

using namespace mca;

namespace {

/// Runs fn(k) for k in [0, n) on `pool` through exp::parallel_map, timing
/// each member call and the round; returns the round's wall seconds.
template <typename Fn>
double timed_round(exp::thread_pool& pool, std::size_t n, traced_result& out,
                   Fn&& fn) {
  std::vector<double> member_s;
  const double wall_s = exp::seconds_of([&] {
    member_s = exp::parallel_map(pool, n, [&](std::size_t k) {
      return exp::seconds_of([&] { fn(k); });
    });
  });
  double sum = 0.0;
  for (const double s : member_s) sum += s;
  out.round_max_sum_s += *std::max_element(member_s.begin(), member_s.end());
  out.round_mean_sum_s += sum / static_cast<double>(n);
  return wall_s;
}

std::uint64_t accepting_instances(core::offloading_system& system) {
  std::uint64_t n = 0;
  for (std::size_t g = 0; g < system.group_count(); ++g) {
    n += system.backend().instance_count(static_cast<group_id>(g));
  }
  return n;
}

void count_slot_users(const core::system_metrics& metrics,
                      traced_result& out) {
  for (const core::slot_report& report : metrics.slots) {
    for (const std::size_t users : report.actual_counts) {
      out.slot_users += users;
    }
    ++out.slot_reports;
  }
}

/// fleet::run_fleet's sequence, call by call: shard ctor + begin; per slot
/// any fault-edge advance -> reallocate -> apply_quota, then the parked
/// advance, advance_to_slot, allocate_slot, apply_quota; finish; merges.
traced_result traced_fleet(const workload& w, const tasks::task_pool& tasks,
                           exp::thread_pool& pool) {
  const exp::scenario_spec& spec = w.spec;
  const std::size_t shards = w.shards;
  traced_result out;
  std::vector<std::unique_ptr<fleet::shard>> members(shards);
  std::optional<fleet::coordinator> coord;

  std::vector<util::time_ms> recovery_edges;
  if (spec.faults.active()) {
    for (const fault::outage_window& win : spec.faults.outages) {
      if (win.end_ms > 0.0 && win.end_ms < spec.duration) {
        recovery_edges.push_back(win.end_ms);
      }
    }
    std::sort(recovery_edges.begin(), recovery_edges.end());
  }

  const auto apply = [&](const auto& quotas) {
    out.apply_quota_s += exp::seconds_of([&] {
      for (std::size_t k = 0; k < quotas.size(); ++k) {
        if (quotas[k]) members[k]->apply_quota(*quotas[k]);
      }
    });
  };

  out.wall_s = exp::seconds_of([&] {
    out.setup_s = timed_round(pool, shards, out, [&](std::size_t k) {
      members[k] = make_shard(w, tasks, k);
    });
    out.coordinate_s += exp::seconds_of([&] {
      coord.emplace(fleet::fleet_allocation_shape(spec), ilp::ilp_options{});
      coord->set_resilient_split(spec.faults.active());
      coord->set_observability(true, nullptr, shards);
      std::size_t expected_slots = 0;
      for (util::time_ms b = spec.slot_length; b <= spec.duration;
           b += spec.slot_length) {
        ++expected_slots;
      }
      coord->enable_timeline(expected_slots, spec.slot_length);
    });

    std::vector<fleet::demand_digest> digests(shards);
    std::size_t next_edge = 0;
    std::size_t slot = 0;
    for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
         boundary += spec.slot_length, ++slot) {
      while (next_edge < recovery_edges.size() &&
             recovery_edges[next_edge] < boundary) {
        const util::time_ms edge = recovery_edges[next_edge++];
        out.advance_s += timed_round(pool, shards, out, [&](std::size_t k) {
          members[k]->advance_to(edge);
        });
        std::vector<std::optional<core::allocation_plan>> quotas;
        out.reallocate_s +=
            exp::seconds_of([&] { quotas = coord->reallocate(); });
        apply(quotas);
      }
      out.advance_s += timed_round(pool, shards, out, [&](std::size_t k) {
        members[k]->advance_to(boundary - kBoundaryParkMs);
      });
      const double step_s = timed_round(pool, shards, out, [&](std::size_t k) {
        digests[k] = members[k]->advance_to_slot(slot);
      });
      out.boundary_s += step_s;
      out.boundary_max_s = std::max(out.boundary_max_s, step_s);
      std::vector<std::optional<core::allocation_plan>> quotas;
      out.coordinate_s +=
          exp::seconds_of([&] { quotas = coord->allocate_slot(digests); });
      apply(quotas);
      for (const auto& member : members) {
        out.instances_at_boundary += accepting_instances(member->system());
        ++out.boundaries;
      }
    }

    std::vector<exp::replication_metrics> per_shard(shards);
    out.finish_s = timed_round(pool, shards, out, [&](std::size_t k) {
      per_shard[k] = members[k]->finish();
    });
    out.merge_s = exp::seconds_of([&] {
      out.aggregate = exp::merge_replications(per_shard);
      obs::timeline timeline;
      std::vector<obs::exemplar_record> exemplars;
      for (const auto& member : members) {
        out.registry.merge(member->observability());
        timeline.merge(member->timeline());
        const auto& records = member->exemplars().records();
        exemplars.insert(exemplars.end(), records.begin(), records.end());
      }
      out.registry.merge(coord->observability());
      timeline.merge(coord->timeline());
      obs::top_exemplars_per_window(std::move(exemplars),
                                    fleet::fleet_options{}.exemplar_top_k);
    });
    for (const auto& member : members) {
      out.sim_events += member->system().simulation().executed_events();
      count_slot_users(member->system().metrics(), out);
    }
    out.finish_s += exp::seconds_of([&] {
      members.clear();
      coord.reset();
    });
  });
  return out;
}

/// exp::run_scenario's sequence for each replication, one after another:
/// stream, config synthesis, ctor, begin; per slot the parked advance and
/// the boundary step; finish, digest_metrics; then merge_replications.
/// The replications form one round (run_scenario's parallel_for).
traced_result traced_scenario(const workload& w,
                              const tasks::task_pool& tasks) {
  const exp::scenario_spec& spec = w.spec;
  const std::size_t groups = exp::group_count_of(spec);
  const exp::replication_plan plan = spec.plan(w.replications);
  traced_result out;
  std::vector<exp::replication_metrics> digests;
  double member_max_s = 0.0;
  double member_sum_s = 0.0;

  out.wall_s = exp::seconds_of([&] {
    for (std::size_t i = 0; i < w.replications; ++i) {
      std::unique_ptr<core::offloading_system> system;
      double member_s =
          exp::seconds_of([&] { system = make_replication(w, tasks, i); });
      out.setup_s += member_s;
      util::time_ms reached = 0.0;
      for (util::time_ms boundary = spec.slot_length;
           boundary <= spec.duration; boundary += spec.slot_length) {
        const double advance_s = exp::seconds_of(
            [&] { system->advance_to(boundary - kBoundaryParkMs); });
        const double step_s =
            exp::seconds_of([&] { system->advance_to(boundary); });
        out.advance_s += advance_s;
        out.boundary_s += step_s;
        out.boundary_max_s = std::max(out.boundary_max_s, step_s);
        member_s += advance_s + step_s;
        out.instances_at_boundary += accepting_instances(*system);
        ++out.boundaries;
        reached = boundary;
      }
      if (reached < spec.duration) {
        const double s =
            exp::seconds_of([&] { system->advance_to(spec.duration); });
        out.advance_s += s;
        member_s += s;
      }
      double finish_s = exp::seconds_of([&] { system->finish(); });
      const double digest_s = exp::seconds_of([&] {
        digests.push_back(
            exp::digest_metrics(system->metrics(), groups, plan.seeds[i]));
      });
      out.sim_events += system->simulation().executed_events();
      out.registry.merge(system->observability());
      count_slot_users(system->metrics(), out);
      finish_s += exp::seconds_of([&] { system.reset(); });
      out.finish_s += finish_s;
      out.merge_s += digest_s;
      member_s += finish_s + digest_s;
      member_max_s = std::max(member_max_s, member_s);
      member_sum_s += member_s;
    }
    out.merge_s += exp::seconds_of(
        [&] { out.aggregate = exp::merge_replications(digests); });
  });
  out.round_max_sum_s = member_max_s;
  out.round_mean_sum_s = member_sum_s / static_cast<double>(w.replications);
  return out;
}

}  // namespace

traced_result run_traced(const workload& w, const tasks::task_pool& tasks,
                         exp::thread_pool& pool) {
  return w.entry == entry_point::fleet ? traced_fleet(w, tasks, pool)
                                       : traced_scenario(w, tasks);
}

}  // namespace mca_bench
