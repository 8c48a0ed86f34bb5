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

const char* to_string(route_status s) noexcept;

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
  /// `on_complete(service_time)` fires when the server finishes.
  route_status route(group_id group, double work_units,
                     instance::completion_fn on_complete);

  /// Reaps drained+idle instances (also runs inside route/launch/retire).
  /// O(1) while nothing is draining — the steady-state request path pays
  /// only a counter check.
  void sweep();

  /// Outcome of a spot-preemption strike against a group.
  struct preempt_result {
    bool applied = false;     ///< a live instance was killed
    std::size_t killed = 0;   ///< in-flight jobs failure-notified
  };

  /// Spot-kills one live (non-draining) instance of `group`, chosen as
  /// member `ordinal % live` — the ordinal comes from the deterministic
  /// fault schedule, so the victim never depends on thread or shard
  /// layout.  Every in-flight job on the victim fires its callback with
  /// ok=false.  No-op (applied=false) when the group has no live member.
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
  /// instance (nullptr detaches).  Setup-time only.
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
  /// All groups that currently have instances.
  std::vector<group_id> groups() const;
  /// Observing pointers to a group's accepting instances (simulation-owned).
  std::vector<const instance*> instances_in(group_id group) const;
  /// Mutable access to a group's accepting instances, for induced
  /// background load (§VI-C.1) and white-box tests.
  std::vector<instance*> mutable_instances_in(group_id group);
  /// Visits a group's accepting instances without materializing a vector —
  /// the allocation-free counterpart of mutable_instances_in.  Warming
  /// (cold-starting) instances are skipped: they exist plan-wise but do
  /// not accept work yet.
  template <typename F>
  void for_each_accepting(group_id group, F&& fn) {
    if (group >= groups_.size()) return;
    for (auto& inst : groups_[group]) {
      if (!inst->draining() && !inst->warming()) fn(*inst);
    }
  }

  std::uint64_t total_completed() const noexcept;
  std::uint64_t total_dropped() const noexcept;

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
  obs::registry* obs_ = nullptr;
  billing_meter billing_;
  std::uint64_t retired_completed_ = 0;
  std::uint64_t retired_dropped_ = 0;
};

}  // namespace mca::cloud
