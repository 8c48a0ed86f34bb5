#include "fleet/fleet_runner.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>

#include "exp/bench_clock.h"
#include "exp/runner.h"

namespace mca::fleet {

core::allocation_request fleet_allocation_shape(
    const exp::scenario_spec& spec) {
  // Reuse the slot-boundary request builder (one candidate path for
  // monolith, shards, and coordinator) with the fleet-wide account cap.
  core::system_config deployment;
  deployment.groups = spec.groups;
  deployment.max_total_instances = spec.fleet_max_total_instances != 0
                                       ? spec.fleet_max_total_instances
                                       : spec.max_total_instances;
  return core::make_slot_allocation_request(deployment,
                                            exp::group_count_of(spec), {});
}

fleet_result run_fleet(const exp::scenario_spec& spec,
                       const fleet_options& options,
                       const tasks::task_pool& task_pool,
                       exp::thread_pool& pool) {
  exp::validate(spec);
  const std::size_t shards =
      options.shards != 0 ? options.shards
                          : (spec.fleet_shards != 0 ? spec.fleet_shards : 1);
  if (shards > spec.user_count) {
    throw std::invalid_argument{
        "run_fleet: more shards than users (empty slices)"};
  }
  obs::tracer* const tracer = options.tracer;
  if (tracer != nullptr && tracer->ring_count() < shards + 1) {
    throw std::invalid_argument{
        "run_fleet: tracer needs at least shards + 1 rings "
        "(one per shard plus the coordinator's)"};
  }

  // mca-lint: allow(det-wallclock) reported wall_seconds is advisory
  // perf output; the fingerprint gates never read it.
  const auto start = std::chrono::steady_clock::now();

  // The spec's study is synthesized once, before the shards, which only
  // read it (as run_scenario's replications do).  Shard construction
  // (device setup) is itself a parallel round; each shard is a pure
  // function of (spec, index).
  const exp::shared_study study = exp::make_study(spec);
  std::vector<std::unique_ptr<shard>> members =
      exp::parallel_map(pool, shards, [&](std::size_t k) {
        shard_obs obs;
        obs.exemplar_top_k = options.exemplar_top_k;
        obs.tracer = tracer;
        obs.ring = k;
        obs.sample_every = options.trace_sample_every;
        auto s =
            std::make_unique<shard>(spec, task_pool, k, shards, obs, study);
        s->begin();
        return s;
      });

  coordinator coord{fleet_allocation_shape(spec)};
  coord.set_resilient_split(spec.faults.active());
  coord.set_observability(true, tracer, shards);
  // One coordinator window per slot round; count the boundaries with the
  // same accumulated arithmetic as the round loop below.
  std::size_t expected_slots = 0;
  for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
       boundary += spec.slot_length) {
    ++expected_slots;
  }
  coord.enable_timeline(expected_slots, spec.slot_length);

  // Worker idle-gap rings ride after the coordinator's when the tracer
  // was sized for them; the pool snapshot brackets the run so only this
  // run's scheduling-dependent deltas land in the merged registry.
  const exp::pool_counters pool_before = pool.counters();
  const bool worker_rings =
      tracer != nullptr &&
      tracer->ring_count() >= shards + 1 + pool.worker_count();
  if (worker_rings) pool.set_observability(tracer, shards + 1);

  fleet_result result;
  result.shard_count = shards;

  // Outage-end edges strictly inside a slot trigger an off-cycle re-aim:
  // the fleet lost (and just regained) a group's capacity mid-slot, and
  // waiting for the next boundary would leave the recovered group idle.
  // Edges landing exactly on a boundary are covered by that slot's solve.
  std::vector<util::time_ms> recovery_edges;
  if (spec.faults.active()) {
    for (const fault::outage_window& w : spec.faults.outages) {
      if (w.end_ms > 0.0 && w.end_ms < spec.duration) {
        recovery_edges.push_back(w.end_ms);
      }
    }
    std::sort(recovery_edges.begin(), recovery_edges.end());
  }
  std::size_t next_edge = 0;

  // Bulk-synchronous slot rounds: advance all shards to the boundary in
  // parallel, then coordinate serially (gather is already ordered by
  // shard index, so the ILP input — and with it every quota — depends
  // only on the digests, never on the shard→thread mapping).  The
  // boundary accumulates with the same arithmetic the shards' slot
  // tickers rearm with, so the loop covers exactly the boundaries that
  // fire within the horizon.
  for (util::time_ms boundary = spec.slot_length; boundary <= spec.duration;
       boundary += spec.slot_length) {
    const std::size_t slot = result.slot_count;
    // Park every shard at each fault edge inside this round, then let the
    // coordinator re-split its last plan.  The edge times come from the
    // spec, the shard advance is bulk-synchronous, and the split uses the
    // remembered digests — deterministic like the boundary rounds.
    while (next_edge < recovery_edges.size() &&
           recovery_edges[next_edge] < boundary) {
      const util::time_ms edge = recovery_edges[next_edge++];
      exp::parallel_map(pool, shards, [&](std::size_t k) {
        members[k]->advance_to(edge);
        return k;
      });
      const auto quotas = coord.reallocate();
      for (std::size_t k = 0; k < quotas.size(); ++k) {
        if (quotas[k]) members[k]->apply_quota(*quotas[k]);
      }
    }
    const double round_t0 = tracer != nullptr ? tracer->now_us() : 0.0;
    const std::vector<demand_digest> digests =
        exp::parallel_map(pool, shards, [&](std::size_t k) {
          const double t0 = tracer != nullptr ? tracer->now_us() : 0.0;
          demand_digest digest = members[k]->advance_to_slot(slot);
          if (tracer != nullptr) {
            obs::span_record span;
            span.wall_start_us = t0;
            span.wall_dur_us = tracer->now_us() - t0;
            span.sim_start_ms = boundary - spec.slot_length;
            span.sim_dur_ms = spec.slot_length;
            span.arg_a = slot;
            span.arg_b = k;
            span.kind = obs::span_kind::shard_advance;
            tracer->ring(k).push(span);
          }
          return digest;
        });
    result.coordination_seconds += exp::seconds_of([&] {
      const auto quotas = coord.allocate_slot(digests);
      for (std::size_t k = 0; k < shards; ++k) {
        if (quotas[k]) members[k]->apply_quota(*quotas[k]);
      }
    });
    if (tracer != nullptr) {
      obs::span_record span;
      span.wall_start_us = round_t0;
      span.wall_dur_us = tracer->now_us() - round_t0;
      span.sim_start_ms = boundary - spec.slot_length;
      span.sim_dur_ms = spec.slot_length;
      span.arg_a = slot;
      span.kind = obs::span_kind::slot_round;
      tracer->ring(shards).push(span);
    }
    ++result.slot_count;
  }

  result.per_shard = exp::parallel_map(
      pool, shards, [&](std::size_t k) { return members[k]->finish(); });
  result.aggregate = exp::merge_replications(result.per_shard);

  // Deterministic counter merge: shard registries in shard-index order,
  // then the coordinator's, then the pool's scheduling-dependent deltas
  // (excluded from the registry fingerprint by construction).
  if (worker_rings) pool.set_observability(nullptr, 0);
  for (const auto& member : members) {
    result.observability.merge(member->observability());
  }
  result.observability.merge(coord.observability());
  const exp::pool_counters pool_after = pool.counters();
  result.observability.add(obs::counter::pool_tasks_executed,
                           pool_after.executed - pool_before.executed);
  result.observability.add(obs::counter::pool_idle_waits,
                           pool_after.idle_waits - pool_before.idle_waits);
  result.observability.set_gauge(obs::gauge::pool_workers,
                                 pool.worker_count());
  result.observability.set_gauge(obs::gauge::fleet_shards, shards);
  if (tracer != nullptr) {
    result.observability.set_gauge(obs::gauge::trace_spans_dropped,
                                   tracer->total_dropped());
  }

  // Time-resolved merge, same fold order as the registries: shard
  // timelines in shard-index order (aligned on slot), the coordinator's
  // last; then the fleet-wide per-window tail exemplars, concatenated in
  // shard order and re-cut to the top-K slowest per window.
  for (const auto& member : members) {
    result.timeline.merge(member->timeline());
  }
  result.timeline.merge(coord.timeline());
  result.observability.set_gauge(obs::gauge::timeline_windows,
                                 result.timeline.size());
  if (options.exemplar_top_k > 0) {
    std::vector<obs::exemplar_record> all;
    for (const auto& member : members) {
      const auto& records = member->exemplars().records();
      all.insert(all.end(), records.begin(), records.end());
    }
    result.exemplars =
        obs::top_exemplars_per_window(std::move(all), options.exemplar_top_k);
  }

  result.slots = coord.records();
  result.ilp_solves = coord.ilp_solves();
  // mca-lint: allow(det-wallclock) see above: advisory wall time only.
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace mca::fleet
