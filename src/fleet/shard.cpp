#include "fleet/shard.h"

#include <stdexcept>
#include <utility>

namespace mca::fleet {
namespace {

/// Domain tag folded into the shard rng streams so they never collide with
/// the replication streams rng::split(base_seed, index) hands a seed sweep
/// of the same scenario.
constexpr std::uint64_t kShardStreamTag = 0x666c656574736872ULL;  // "fleetshr"

}  // namespace

std::size_t shard_user_count(std::size_t user_count, std::size_t index,
                             std::size_t shard_count) {
  return user_count / shard_count + (index < user_count % shard_count ? 1 : 0);
}

shard::shard(const exp::scenario_spec& spec, const tasks::task_pool& pool,
             std::size_t index, std::size_t shard_count, shard_obs obs)
    : shard(spec, pool, index, shard_count, obs, exp::make_study(spec)) {}

shard::shard(const exp::scenario_spec& spec, const tasks::task_pool& pool,
             std::size_t index, std::size_t shard_count, shard_obs obs,
             exp::shared_study study)
    : spec_{spec}, index_{index} {
  exp::validate(spec);
  if (shard_count == 0) {
    throw std::invalid_argument{"fleet::shard: zero shard count"};
  }
  if (index >= shard_count) {
    throw std::invalid_argument{"fleet::shard: index out of range"};
  }
  spec_.user_count = shard_user_count(spec.user_count, index, shard_count);
  if (spec_.user_count == 0) {
    throw std::invalid_argument{
        "fleet::shard: more shards than users (empty slice)"};
  }
  seed_ = spec.base_seed;
  group_count_ = exp::group_count_of(spec_);

  util::rng stream = util::rng::split(spec.base_seed ^ kShardStreamTag, index);
  core::system_config config =
      exp::make_system_config(spec_, pool, stream, std::move(study));
  // The coordinator solves for the whole fleet: the shard's boundaries
  // only forecast, and its quota arrives through apply_quota.
  config.enable_adaptation = false;
  // Shards are digest-only consumers: the streaming request digest covers
  // acceptance and latency, so the raw per-request series is not kept.
  config.record_request_series = false;
  config.exemplar_top_k = obs.exemplar_top_k;
  config.trace_sink = obs.tracer;
  config.trace_ring = obs.ring;
  config.trace_sample_every = obs.sample_every;
  if (config.faults.active() && shard_count > 1) {
    // Slice the shared fault trace by global order index: strike `seq`
    // lands on shard `seq % shard_count`, so the union across shards is
    // exactly the monolith's schedule regardless of shard count.  Outage
    // windows are NOT sliced — a zone outage hits every shard's slice of
    // the group at once.
    std::vector<fault::preemption_event> mine;
    for (const fault::preemption_event& ev : config.preemption_schedule) {
      if (ev.seq % shard_count == index) mine.push_back(ev);
    }
    config.preemption_schedule = std::move(mine);
  }
  system_.emplace(std::move(config), pool);
}

void shard::begin() {
  system_->begin(spec_.duration);
  next_boundary_ = spec_.slot_length;
}

// The shard advance drives every per-request event in its slice of the
// fleet between two slot boundaries — K shards run this concurrently on
// the pool, so anything slow or allocating here multiplies by the whole
// population.  The per-boundary digest assembly below is slot-rate (4-ish
// per run), not request-rate, but it shares the region: it runs with the
// barrier held, where a stall delays every other shard.
// mca:hot-path-begin(fleet-shard-advance)
demand_digest shard::advance_to_slot(std::size_t slot_index) {
  system_->advance_to(next_boundary_);
  next_boundary_ += spec_.slot_length;

  demand_digest digest;
  digest.shard = index_;
  digest.slot = slot_index;
  const std::vector<core::slot_report>& slots = system_->metrics().slots;
  if (!slots.empty() && slots.back().slot_index == slot_index &&
      slots.back().predicted_counts) {
    digest.has_prediction = true;
    digest.demand_per_group = core::demand_from_prediction(
        *slots.back().predicted_counts, group_count_);
  } else {
    digest.demand_per_group.assign(group_count_, 0.0);
  }

  // Warming instances count as deployed but hold no jobs (they admit
  // none), so the accepting ones carry the whole queue.
  cloud::backend_pool& backend = system_->backend();
  for (group_id g = 0; g < group_count_; ++g) {
    digest.instances += backend.instance_count(g);
    backend.for_each_accepting(g, [&](cloud::instance& server) {
      digest.queue_depth += server.active_jobs();
    });
  }
  return digest;
}
// mca:hot-path-end

void shard::advance_to(util::time_ms t) { system_->advance_to(t); }

void shard::apply_quota(const core::allocation_plan& quota) {
  system_->apply_external_plan(quota);
}

exp::replication_metrics shard::finish() {
  system_->finish();
  return exp::digest_metrics(system_->metrics(), group_count_, seed_);
}

}  // namespace mca::fleet
