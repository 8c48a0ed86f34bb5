#include "fleet/coordinator.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mca::fleet {
namespace {

/// Price of one instance of `type_name` in `group` under the shape (the
/// same candidate list the fleet ILP priced the plan with).
double candidate_cost(const core::allocation_request& shape, group_id group,
                      const std::string& type_name) {
  if (group >= shape.candidates_per_group.size()) return 0.0;
  for (const auto& cand : shape.candidates_per_group[group]) {
    if (cand.type_name == type_name) return cand.cost_per_hour;
  }
  return 0.0;
}

}  // namespace

std::vector<std::optional<core::allocation_plan>> split_fleet_plan(
    const core::allocation_plan& fleet_plan,
    std::span<const demand_digest> digests,
    const core::allocation_request& shape, bool min_footprint) {
  const std::size_t shard_count = digests.size();
  std::vector<std::optional<core::allocation_plan>> quotas(shard_count);
  std::vector<std::size_t> predicting;
  for (std::size_t k = 0; k < shard_count; ++k) {
    if (!digests[k].has_prediction) continue;
    predicting.push_back(k);
    quotas[k].emplace();
    quotas[k]->feasible = fleet_plan.feasible;
    quotas[k]->best_effort = fleet_plan.best_effort;
    quotas[k]->status = fleet_plan.status;
  }
  if (predicting.empty()) return quotas;

  std::vector<std::size_t> base(predicting.size());
  std::vector<double> remainder(predicting.size());
  std::vector<std::size_t> order(predicting.size());
  for (const auto& entry : fleet_plan.entries) {
    // Weights: each predicting shard's own demand in this entry's group;
    // an all-zero group (margin capacity) splits equally.
    double total_weight = 0.0;
    for (const std::size_t k : predicting) {
      const auto& demand = digests[k].demand_per_group;
      if (entry.group < demand.size()) total_weight += demand[entry.group];
    }
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < predicting.size(); ++i) {
      const auto& demand = digests[predicting[i]].demand_per_group;
      const double weight =
          entry.group < demand.size() ? demand[entry.group] : 0.0;
      const double exact =
          total_weight > 0.0
              ? static_cast<double>(entry.count) * weight / total_weight
              : static_cast<double>(entry.count) /
                    static_cast<double>(predicting.size());
      base[i] = static_cast<std::size_t>(std::floor(exact));
      remainder[i] = exact - std::floor(exact);
      assigned += base[i];
    }
    // Largest remainder takes the leftover counts, ties toward the lower
    // shard index — sums exactly to the fleet entry, deterministically.
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return remainder[a] > remainder[b];
                     });
    for (std::size_t i = 0; assigned < entry.count; ++i) {
      ++base[order[i % order.size()]];
      ++assigned;
    }
    const double cost = candidate_cost(shape, entry.group, entry.type_name);
    for (std::size_t i = 0; i < predicting.size(); ++i) {
      if (base[i] == 0) continue;
      auto& quota = *quotas[predicting[i]];
      quota.entries.push_back({entry.group, entry.type_name, base[i]});
      quota.total_cost_per_hour += cost * static_cast<double>(base[i]);
    }
  }
  if (min_footprint) {
    // Resilience floor: shards route only within themselves, so a shard
    // the apportionment left with zero instances in a group it still has
    // demand for would push that whole group onto the local-fallback
    // path.  Top such shards up with one instance of the group's
    // cheapest candidate type — appended after the split entries, so the
    // quota stays a deterministic function of (plan, digests, shape).
    for (const std::size_t k : predicting) {
      auto& quota = *quotas[k];
      const auto& demand = digests[k].demand_per_group;
      const std::size_t groups =
          std::min(demand.size(), shape.candidates_per_group.size());
      for (group_id g = 0; g < groups; ++g) {
        if (demand[g] <= 0.0) continue;
        const auto& candidates = shape.candidates_per_group[g];
        if (candidates.empty()) continue;
        bool covered = false;
        for (const auto& e : quota.entries) {
          if (e.group == g && e.count > 0) {
            covered = true;
            break;
          }
        }
        if (covered) continue;
        const core::allocation_candidate* cheapest = &candidates.front();
        for (const auto& cand : candidates) {
          if (cand.cost_per_hour < cheapest->cost_per_hour) cheapest = &cand;
        }
        quota.entries.push_back({g, cheapest->type_name, 1});
        quota.total_cost_per_hour += cheapest->cost_per_hour;
      }
    }
  }
  return quotas;
}

coordinator::coordinator(core::allocation_request shape, ilp::ilp_options opts)
    : shape_{std::move(shape)}, opts_{opts} {
  shape_.workload_per_group.assign(shape_.candidates_per_group.size(), 0.0);
  core::validate(shape_);
  obs_.resize_groups(group_count());
  obs_ptr_ = &obs_;
}

void coordinator::set_observability(bool counters, obs::tracer* tracer,
                                    std::size_t ring) noexcept {
  obs_ptr_ = counters ? &obs_ : nullptr;
  tracer_ = tracer;
  trace_ring_ = ring;
}

std::vector<std::optional<core::allocation_plan>> coordinator::allocate_slot(
    std::span<const demand_digest> digests) {
  coordination_record record;
  record.slot = next_slot_++;
  if (obs_ptr_) obs_ptr_->add(obs::counter::fleet_slot_rounds);
  for (const auto& digest : digests) {
    record.queue_depth += static_cast<double>(digest.queue_depth);
  }

  std::vector<std::optional<core::allocation_plan>> quotas(digests.size());
  const fleet_demand fleet = combine(digests, group_count());
  // Shards without a forecast keep their fleets untouched, so their
  // instances are spoken for: reserve them out of the account cap before
  // solving, or the fleet total could exceed it while predictors warm up.
  for (const auto& digest : digests) {
    if (!digest.has_prediction) record.reserved_instances += digest.instances;
  }
  const bool cap_left =
      record.reserved_instances < shape_.max_total_instances;
  if (fleet.any_prediction() && cap_left) {
    record.solved = true;
    record.fleet_demand = fleet.total();
    core::allocation_request request = shape_;
    request.workload_per_group = fleet.demand_per_group;
    request.max_total_instances -= record.reserved_instances;
    const double solve_t0 = tracer_ ? tracer_->now_us() : 0.0;
    last_plan_ = core::allocate_ilp(request, opts_, obs_ptr_);
    record.fleet_instances = last_plan_.total_instances();
    record.cost_per_hour = last_plan_.total_cost_per_hour;
    if (tracer_) {
      obs::span_record span;
      span.wall_start_us = solve_t0;
      span.wall_dur_us = tracer_->now_us() - solve_t0;
      span.arg_a = record.slot;
      span.arg_b = record.fleet_instances;
      span.kind = obs::span_kind::coordinator_solve;
      tracer_->ring(trace_ring_).push(span);
    }
    last_digests_.assign(digests.begin(), digests.end());
    const double split_t0 = tracer_ ? tracer_->now_us() : 0.0;
    quotas = split_fleet_plan(last_plan_, digests, shape_, resilient_split_);
    if (obs_ptr_) obs_ptr_->add(obs::counter::fleet_quota_splits);
    if (tracer_) {
      obs::span_record span;
      span.wall_start_us = split_t0;
      span.wall_dur_us = tracer_->now_us() - split_t0;
      span.arg_a = record.slot;
      span.arg_b = digests.size();
      span.kind = obs::span_kind::quota_split;
      tracer_->ring(trace_ring_).push(span);
    }
  }
  records_.push_back(record);
  if (obs_ptr_ != nullptr && timeline_.enabled()) {
    // Close the coordinator's window for this slot.  The boundary that
    // triggered this round sits at (slot + 1) * slot_length in simulated
    // time; the coordinator itself runs on no simulated clock.
    obs_ptr_->add(obs::counter::timeline_snapshots);
    timeline_.snapshot(*obs_ptr_, record.slot,
                       slot_length_ms_ * static_cast<double>(record.slot + 1));
  }
  return quotas;
}

std::size_t coordinator::ilp_solves() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [](const coordination_record& r) { return r.solved; }));
}

std::vector<std::optional<core::allocation_plan>> coordinator::reallocate() {
  if (last_digests_.empty()) return {};
  return split_fleet_plan(last_plan_, last_digests_, shape_, resilient_split_);
}

void coordinator::enable_timeline(std::size_t window_capacity,
                                  double slot_length_ms) {
  slot_length_ms_ = slot_length_ms;
  timeline_.reset(window_capacity, group_count());
}

}  // namespace mca::fleet
