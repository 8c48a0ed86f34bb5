// The back-end: acceleration groups of running instances.
//
// The pool owns every provisioned server, keyed by acceleration group, and
// offers the two operations the SDN-accelerator needs: route a request to
// the least-loaded member of a group, and reshape the fleet (launch /
// retire) when the allocator produces a new plan.  Retired instances drain
// — they stop accepting work, finish what they have, and are reaped (and
// their billing record closed) once idle.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/instance.h"
#include "sim/simulation.h"
#include "util/ids.h"
#include "util/rng.h"

namespace mca::cloud {

/// Outcome of routing one request into a group.
enum class route_status {
  ok,            ///< accepted by an instance
  dropped,       ///< every instance in the group is at its admission cap
  no_instances,  ///< the group currently has no (accepting) instances
};

/// Owns the fleet; one per simulated deployment.
class backend_pool {
 public:
  backend_pool(sim::simulation& sim, util::rng rng,
               instance::options instance_opts = {});

  /// Launches one instance of `type` into `group`; returns its id.
  instance_id launch(group_id group, const instance_type& type);

  /// Drains up to `count` instances of `type` in `group` (idle ones are
  /// reaped immediately).  Returns how many were marked.
  std::size_t retire(group_id group, const instance_type& type,
                     std::size_t count);

  /// Sends `work_units` to the least-loaded accepting instance of `group`;
  /// the completion sink hears `tag` and `epoch` when the server finishes
  /// (see instance::submit).
  route_status route(group_id group, double work_units,
                     std::uint32_t tag = instance::kUntagged,
                     std::uint32_t epoch = 0);

  /// Installs the sink that hears every routed job's completion on every
  /// current and future instance (nullptr = none).  Setup-time only.
  void set_completion_sink(completion_sink* sink) noexcept {
    sink_ = sink;
    for (auto& members : groups_) {
      for (auto& inst : members) inst->set_completion_sink(sink);
    }
  }
  bool has_completion_sink() const noexcept { return sink_ != nullptr; }

  /// Reaps drained+idle instances (also runs inside route/launch/retire).
  /// O(1) while nothing is draining — the steady-state request path pays
  /// only a counter check.
  void sweep();

  /// Settles every instance, draining or not (instance::settle): replays
  /// each background-only instance's deferred wakes due before the
  /// running code, so the registry counts every completion an engine run
  /// would have counted by now.  The owner calls it before reading the
  /// registry and after advancing the clock.
  void settle();

  /// Outcome of a spot-preemption strike against a group.
  struct preempt_result {
    bool applied = false;     ///< a live instance was killed
    std::size_t killed = 0;   ///< in-flight jobs failure-notified
  };

  /// Spot-kills one live (non-draining) instance of `group`, chosen as
  /// member `ordinal % live` — the ordinal comes from the deterministic
  /// fault schedule, so the victim never depends on thread or shard
  /// layout.  The sink hears every tagged in-flight job on the victim
  /// with ok=false.  No-op (applied=false) when the group has no live member.
  preempt_result preempt_in(group_id group, std::uint64_t ordinal);

  /// Opens an outage on `group`: every live instance drains (in-flight
  /// work finishes; nothing new is accepted) and route() reports
  /// no_instances until end_outage.  Returns how many instances drained.
  std::size_t begin_outage(group_id group);
  /// Closes the outage; the group accepts launches and routes again.
  void end_outage(group_id group) noexcept;
  /// True while begin_outage holds the group down.
  bool group_available(group_id group) const noexcept {
    return group >= unavailable_.size() || unavailable_[group] == 0;
  }

  /// Attaches the PS observability counters to every current and future
  /// instance (nullptr detaches).  Setup-time only.  The registry is the
  /// pool's only count of completions and drops; it outlives the
  /// instances it counts, so reaping loses nothing.
  void set_observability(obs::registry* registry) noexcept {
    obs_ = registry;
    for (auto& members : groups_) {
      for (auto& inst : members) inst->set_observability(registry);
    }
  }

  /// Accepting (non-draining) instance count in a group.
  std::size_t instance_count(group_id group) const noexcept;
  /// Accepting instances of one type in a group.
  std::size_t instance_count(group_id group,
                             const std::string& type_name) const noexcept;
  /// Visits a group's accepting instances without materializing a vector.
  /// Warming (cold-starting) instances are skipped: they exist plan-wise
  /// but do not accept work yet.
  template <typename F>
  void for_each_accepting(group_id group, F&& fn) {
    if (group >= groups_.size()) return;
    for (auto& inst : groups_[group]) {
      if (!inst->draining() && !inst->warming()) fn(*inst);
    }
  }

  const billing_meter& billing() const noexcept { return billing_; }

 private:
  sim::simulation& sim_;
  util::rng rng_;
  instance::options instance_opts_;
  instance_id next_id_ = 1;
  /// Indexed directly by group id (ids are small and dense); empty slots
  /// are groups never launched into.  Replaces the former std::map so the
  /// per-request route() is a bounds check plus one vector scan.
  std::vector<std::vector<std::unique_ptr<instance>>> groups_;
  /// Instances marked draining but not yet reaped; sweep() is a no-op at
  /// zero, which is the steady state between provisioning slots.
  std::size_t draining_count_ = 0;
  /// Per-group outage flags (1 = down); indexed like groups_.  Groups
  /// past the end are available.
  std::vector<std::uint8_t> unavailable_;
  completion_sink* sink_ = nullptr;
  obs::registry* obs_ = nullptr;
  billing_meter billing_;
};

}  // namespace mca::cloud
