#include "cloud/backend_pool.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mca::cloud {
namespace {

/// `server`'s bill from its launch to `end`: its price per started hour,
/// at least one hour.
util::money bill(const instance& server, util::time_ms end) {
  const double hours =
      util::to_hours(std::max(end - server.launched_at(), 0.0));
  return server.type().cost_per_hour *
         static_cast<util::money>(std::max(std::ceil(hours), 1.0));
}

}  // namespace

backend_pool::backend_pool(sim::simulation& sim, util::rng rng,
                           instance::options instance_opts)
    : sim_{sim}, rng_{rng}, instance_opts_{instance_opts} {}

void backend_pool::launch(group_id group, const instance_type& type) {
  sweep();
  if (group >= groups_.size()) groups_.resize(group + 1);
  auto inst = std::make_unique<instance>(sim_, type, rng_.fork(),
                                         instance_opts_);
  // Keep the sweep fast path's accounting exact no matter who calls
  // drain() — retire() here or a caller holding the instance through
  // for_each_accepting.
  inst->set_drain_observer(
      [](void* self) noexcept {
        ++static_cast<backend_pool*>(self)->draining_count_;
      },
      this);
  inst->set_completion_sink(sink_);
  inst->set_observability(obs_);
  if (obs_ != nullptr && inst->warming()) {
    obs_->add(obs::counter::fault_cold_starts);
  }
  groups_[group].push_back(std::move(inst));
}

std::size_t backend_pool::retire(group_id group, const instance_type& type,
                                 std::size_t count) {
  if (group >= groups_.size()) return 0;
  auto& members = groups_[group];
  std::size_t marked = 0;
  // Prefer draining idle instances so capacity leaves the fleet gracefully.
  for (int pass = 0; pass < 2 && marked < count; ++pass) {
    const bool idle_only = (pass == 0);
    for (auto& inst : members) {
      if (marked >= count) break;
      if (inst->draining() || inst->type().name != type.name) continue;
      if (idle_only && !inst->idle()) continue;
      inst->drain();  // the drain observer bumps draining_count_
      ++marked;
    }
  }
  sweep();
  return marked;
}

// Per-request routing plus the draining sweep's O(1) fast path: both run
// once per offloaded request, between the SDN dispatch stage and
// instance::submit, so they live in a lint-enforced hot-path region.
// mca:hot-path-begin(backend-route)
route_status backend_pool::route(group_id group, double work_units,
                                 std::uint32_t tag, std::uint32_t epoch) {
  sweep();
  if (group >= groups_.size() || !group_available(group)) {
    return route_status::no_instances;
  }

  // Least-loaded by active-jobs-per-core — "routes the request to the
  // corresponding group of instances" picking the member with headroom.
  // Warming instances are invisible here: capacity that has not finished
  // its cold start cannot take the request.
  instance* best = nullptr;
  double best_load = std::numeric_limits<double>::infinity();
  for (auto& inst : groups_[group]) {
    if (inst->draining() || inst->warming()) continue;
    const double load =
        static_cast<double>(inst->active_jobs()) / inst->type().vcpus;
    if (load < best_load) {
      best_load = load;
      best = inst.get();
    }
  }
  if (best == nullptr) return route_status::no_instances;
  return best->submit(work_units, tag, epoch)
             ? route_status::ok
             : route_status::dropped;
}

void backend_pool::sweep() {
  if (draining_count_ == 0) return;
  for (auto& members : groups_) {
    auto reap = std::remove_if(
        members.begin(), members.end(), [this](std::unique_ptr<instance>& p) {
          if (p->draining() && p->idle()) {
            reaped_cost_ += bill(*p, sim_.now());
            if (draining_count_ > 0) --draining_count_;
            return true;
          }
          return false;
        });
    members.erase(reap, members.end());
  }
}
// mca:hot-path-end

util::money backend_pool::total_cost(util::time_ms now) const {
  util::money cost = reaped_cost_;
  for (const auto& members : groups_) {
    for (const auto& inst : members) cost += bill(*inst, now);
  }
  return cost;
}

std::size_t backend_pool::member_count() const noexcept {
  std::size_t n = 0;
  for (const auto& members : groups_) n += members.size();
  return n;
}

void backend_pool::settle() {
  for (auto& members : groups_) {
    for (auto& inst : members) inst->settle();
  }
}

backend_pool::preempt_result backend_pool::preempt_in(group_id group,
                                                      std::uint64_t ordinal) {
  preempt_result result;
  if (group >= groups_.size()) return result;
  auto& members = groups_[group];
  std::size_t live = 0;
  for (const auto& inst : members) {
    if (!inst->draining()) ++live;
  }
  if (live == 0) return result;
  // The ordinal comes from the fault schedule's rng stream; the modulo
  // pins the victim to a member index, which is deterministic because
  // launch/retire order is.
  std::size_t victim = static_cast<std::size_t>(ordinal % live);
  for (auto& inst : members) {
    if (inst->draining()) continue;
    if (victim-- == 0) {
      result.applied = true;
      result.killed = inst->preempt();
      break;
    }
  }
  sweep();  // the victim is draining and idle now — reap it immediately
  return result;
}

std::size_t backend_pool::begin_outage(group_id group) {
  if (group >= unavailable_.size()) unavailable_.resize(group + 1, 0);
  unavailable_[group] = 1;
  std::size_t drained = 0;
  if (group < groups_.size()) {
    for (auto& inst : groups_[group]) {
      if (inst->draining()) continue;
      inst->drain();
      ++drained;
    }
  }
  sweep();
  return drained;
}

void backend_pool::end_outage(group_id group) noexcept {
  if (group < unavailable_.size()) unavailable_[group] = 0;
}

std::size_t backend_pool::instance_count(group_id group) const noexcept {
  if (group >= groups_.size()) return 0;
  std::size_t n = 0;
  for (const auto& inst : groups_[group]) {
    if (!inst->draining()) ++n;
  }
  return n;
}

std::size_t backend_pool::instance_count(
    group_id group, const std::string& type_name) const noexcept {
  if (group >= groups_.size()) return 0;
  std::size_t n = 0;
  for (const auto& inst : groups_[group]) {
    if (!inst->draining() && inst->type().name == type_name) ++n;
  }
  return n;
}

}  // namespace mca::cloud
