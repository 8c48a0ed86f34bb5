// Time-resolved telemetry: per-slot timeline windows (delta semantics,
// ring wrap, slot-aligned merge, fingerprint exclusions), the
// tail-exemplar reservoir (top-K admission, deterministic tie-breaks,
// fleet per-window cut), trace lanes and the slot-window export filter,
// and the fleet integration — the merged timeline fingerprint must be
// bit-identical at jobs 1/4/16 and between traced and untraced legs.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "obs/exemplar.h"
#include "obs/tracer.h"
#include "tasks/task.h"

namespace mca::obs {
namespace {

/// Group `group`'s in-window SLO sample count.
std::size_t slo_total(const timeline_window& w, std::size_t group) {
  util::histogram h;
  w.add_slo(group, h);
  return h.total();
}

// ---------------------------------------------------------------------------
// timeline windows

TEST(ObsTimeline, SnapshotStoresDeltasNotTotals) {
  registry reg;
  reg.resize_groups(2);
  timeline tl;
  tl.reset(4, 2);
  ASSERT_TRUE(tl.enabled());

  reg.add(counter::sdn_requests, 10);
  reg.observe_response(0, 200.0);
  reg.observe_response(1, 700.0);
  tl.snapshot(reg, 0, 1'000.0);

  reg.add(counter::sdn_requests, 3);
  reg.observe_response(0, 300.0);
  tl.snapshot(reg, 1, 2'000.0);

  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.window(0).slot, 0u);
  EXPECT_DOUBLE_EQ(tl.window(0).sim_end_ms, 1'000.0);
  EXPECT_EQ(tl.window(0).delta(counter::sdn_requests), 10u);
  EXPECT_EQ(slo_total(tl.window(0), 0), 1u);
  EXPECT_EQ(slo_total(tl.window(0), 1), 1u);
  // Second window holds only what landed after the first snapshot.
  EXPECT_EQ(tl.window(1).delta(counter::sdn_requests), 3u);
  EXPECT_EQ(slo_total(tl.window(1), 0), 1u);
  EXPECT_EQ(slo_total(tl.window(1), 1), 0u);
  EXPECT_EQ(tl.window(1).merged_slo().total(), 1u);
}

TEST(ObsTimeline, WindowBinsThrowAt2To32InsteadOfWrapping) {
  // 31 self-merges double one sample into 2^31 in a single bin.
  registry half;
  half.resize_groups(1);
  half.observe_response(0, 200.0);
  for (int i = 0; i < 31; ++i) {
    const registry copy = half;
    half.merge(copy);
  }
  constexpr std::size_t kHalf = std::size_t{1} << 31;
  ASSERT_EQ(half.group_slo(0).total(), kHalf);

  timeline fits;
  fits.reset(1, 1);
  fits.snapshot(half, 0, 1'000.0);
  EXPECT_EQ(slo_total(fits.window(0), 0), kHalf);
  // Two windows of 2^31 in one bin merge to 2^32.
  timeline twice = fits;
  EXPECT_THROW(twice.merge(fits), std::overflow_error);

  registry full = half;
  full.merge(half);
  timeline overflows;
  overflows.reset(1, 1);
  EXPECT_THROW(overflows.snapshot(full, 0, 1'000.0), std::overflow_error);
}

TEST(ObsTimeline, RingOverwritesOldestWindow) {
  registry reg;
  timeline tl;
  tl.reset(2, 0);
  for (std::uint64_t slot = 0; slot < 3; ++slot) {
    reg.add(counter::sdn_requests);
    tl.snapshot(reg, slot, 1'000.0 * static_cast<double>(slot + 1));
  }
  // Three windows closed; the ring keeps the newest two.
  EXPECT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl.window(0).slot, 1u);
  EXPECT_EQ(tl.window(1).slot, 2u);
}

TEST(ObsTimeline, ZeroCapacityDisablesSnapshot) {
  registry reg;
  timeline tl;
  EXPECT_FALSE(tl.enabled());
  reg.add(counter::sdn_requests);
  tl.snapshot(reg, 0, 1'000.0);
  EXPECT_EQ(tl.size(), 0u);
}

TEST(ObsTimeline, MergeAlignsOnSlotIndex) {
  registry a;
  a.resize_groups(1);
  timeline ta;
  ta.reset(4, 1);
  a.add(counter::sdn_requests, 5);
  a.observe_response(0, 100.0);
  ta.snapshot(a, 0, 1'000.0);
  a.add(counter::sdn_requests, 2);
  ta.snapshot(a, 1, 2'000.0);

  // The other shard saw slots 1 and 2 only.
  registry b;
  b.resize_groups(1);
  timeline tb;
  tb.reset(4, 1);
  tb.snapshot(b, 1, 2'000.0);
  b.add(counter::sdn_requests, 7);
  b.observe_response(0, 900.0);
  tb.snapshot(b, 2, 3'000.0);

  timeline merged;
  merged.merge(ta);
  merged.merge(tb);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.window(0).slot, 0u);
  EXPECT_EQ(merged.window(0).delta(counter::sdn_requests), 5u);
  EXPECT_EQ(merged.window(1).slot, 1u);
  EXPECT_EQ(merged.window(1).delta(counter::sdn_requests), 2u);
  EXPECT_EQ(merged.window(2).slot, 2u);
  EXPECT_EQ(merged.window(2).delta(counter::sdn_requests), 7u);
  EXPECT_EQ(slo_total(merged.window(2), 0), 1u);
}

TEST(ObsTimeline, FingerprintExcludesSchedulingAndTraceCounters) {
  registry a;
  a.resize_groups(1);
  registry b;
  b.resize_groups(1);
  a.add(counter::sdn_requests, 50);
  b.add(counter::sdn_requests, 50);
  // Pool telemetry and trace-dependent counters differ between legs; the
  // timeline fingerprint must not.
  a.add(counter::pool_idle_waits, 11);
  a.add(counter::sdn_sampled_spans, 9);
  ASSERT_TRUE(counter_is_trace_dependent(counter::sdn_sampled_spans));
  ASSERT_FALSE(counter_is_trace_dependent(counter::sdn_requests));

  timeline ta;
  ta.reset(2, 1);
  timeline tb;
  tb.reset(2, 1);
  ta.snapshot(a, 0, 1'000.0);
  tb.snapshot(b, 0, 1'000.0);
  EXPECT_EQ(ta.fingerprint(), tb.fingerprint());

  // A deterministic counter delta does move it.
  registry c;
  c.resize_groups(1);
  c.add(counter::sdn_requests, 51);
  timeline tc;
  tc.reset(2, 1);
  tc.snapshot(c, 0, 1'000.0);
  EXPECT_NE(ta.fingerprint(), tc.fingerprint());
}

// ---------------------------------------------------------------------------
// tail-exemplar reservoir

exemplar_record make_exemplar(double response_ms, std::uint64_t request) {
  exemplar_record r;
  r.response_ms = response_ms;
  r.issued_at_ms = 100.0;
  r.request = request;
  r.success = true;
  return r;
}

TEST(ObsExemplar, ReservoirKeepsTheSlowestK) {
  exemplar_reservoir res;
  res.reset(2, 4);
  std::size_t admitted = 0;
  for (double ms : {120.0, 900.0, 45.0, 610.0, 300.0}) {
    if (res.observe(make_exemplar(ms, static_cast<std::uint64_t>(ms)))) {
      ++admitted;
    }
  }
  res.roll_window(0);
  ASSERT_EQ(res.records().size(), 2u);
  EXPECT_DOUBLE_EQ(res.records()[0].response_ms, 900.0);  // slowest first
  EXPECT_DOUBLE_EQ(res.records()[1].response_ms, 610.0);
  EXPECT_EQ(admitted, 3u);  // 120 and 900 fill, 610 displaces 120
}

TEST(ObsExemplar, EqualLatencyTiesBreakOnLowerRequestId) {
  // All candidates identical except the request id: the reservoir must
  // keep the lowest ids, whatever the arrival order.
  exemplar_reservoir res;
  res.reset(2, 2);
  for (const std::uint64_t id : {41u, 7u, 99u, 12u, 60u}) {
    res.observe(make_exemplar(500.0, id));
  }
  res.roll_window(0);
  ASSERT_EQ(res.records().size(), 2u);
  EXPECT_EQ(res.records()[0].request, 7u);
  EXPECT_EQ(res.records()[1].request, 12u);

  // Same set, different order → identical flush.
  exemplar_reservoir again;
  again.reset(2, 2);
  for (const std::uint64_t id : {99u, 12u, 60u, 41u, 7u}) {
    again.observe(make_exemplar(500.0, id));
  }
  again.roll_window(0);
  ASSERT_EQ(again.records().size(), 2u);
  EXPECT_EQ(again.records()[0].request, 7u);
  EXPECT_EQ(again.records()[1].request, 12u);
}

TEST(ObsExemplar, WindowsFlushIndependently) {
  exemplar_reservoir res;
  res.reset(1, 2);
  res.observe(make_exemplar(200.0, 1));
  res.roll_window(0);
  res.observe(make_exemplar(900.0, 2));
  res.observe(make_exemplar(100.0, 3));
  res.roll_window(1);
  ASSERT_EQ(res.records().size(), 2u);
  EXPECT_EQ(res.records()[0].slot, 0u);
  EXPECT_EQ(res.records()[0].request, 1u);
  EXPECT_EQ(res.records()[1].slot, 1u);
  EXPECT_DOUBLE_EQ(res.records()[1].response_ms, 900.0);
}

TEST(ObsExemplar, FleetCutKeepsTopKPerWindow) {
  // Two shards' flushed records concatenated in shard order.
  std::vector<exemplar_record> all;
  auto put = [&](std::uint32_t slot, double ms, std::uint64_t id) {
    exemplar_record r = make_exemplar(ms, id);
    r.slot = slot;
    all.push_back(r);
  };
  put(0, 400.0, 10);
  put(0, 800.0, 11);
  put(1, 350.0, 12);
  put(0, 600.0, 20);  // second shard starts here
  put(1, 900.0, 21);
  const std::vector<exemplar_record> cut = top_exemplars_per_window(all, 2);
  ASSERT_EQ(cut.size(), 4u);
  EXPECT_EQ(cut[0].request, 11u);  // slot 0: 800 then 600
  EXPECT_EQ(cut[1].request, 20u);
  EXPECT_EQ(cut[2].request, 21u);  // slot 1: 900 then 350
  EXPECT_EQ(cut[3].request, 12u);
}

TEST(ObsExemplar, SpansCarryLifecycleExtentAndIds) {
  exemplar_record r = make_exemplar(250.0, 77);
  r.user = 5;
  r.issued_at_ms = 1'250.0;
  const std::vector<span_record> spans = exemplar_spans({r});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, span_kind::request_exemplar);
  EXPECT_DOUBLE_EQ(spans[0].sim_start_ms, 1'250.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_dur_ms, 250.0);
  EXPECT_EQ(spans[0].arg_a, 5u);
  EXPECT_EQ(spans[0].arg_b, 77u);
}

// ---------------------------------------------------------------------------
// trace lanes and the slot-window filter

TEST(ObsTraceFilter, KeepsSimSpansByOverlapAndWallSpansBySlot) {
  trace_filter filter;
  filter.slot_begin = 1;
  filter.slot_end = 2;
  filter.sim_begin_ms = 1'000.0;
  filter.sim_end_ms = 3'000.0;

  span_record sim_inside;
  sim_inside.kind = span_kind::request_lifecycle;
  sim_inside.sim_start_ms = 1'500.0;
  sim_inside.sim_dur_ms = 100.0;
  EXPECT_TRUE(trace_filter_keeps(filter, sim_inside));

  span_record sim_overlapping = sim_inside;
  sim_overlapping.sim_start_ms = 500.0;
  sim_overlapping.sim_dur_ms = 600.0;  // ends at 1100, inside
  EXPECT_TRUE(trace_filter_keeps(filter, sim_overlapping));

  span_record sim_before = sim_inside;
  sim_before.sim_start_ms = 100.0;
  sim_before.sim_dur_ms = 50.0;
  EXPECT_FALSE(trace_filter_keeps(filter, sim_before));

  span_record sim_after = sim_inside;
  sim_after.sim_start_ms = 3'000.0;
  EXPECT_FALSE(trace_filter_keeps(filter, sim_after));

  // Wall-only coordinator spans carry the slot in arg_a.
  span_record solve;
  solve.kind = span_kind::coordinator_solve;
  solve.sim_start_ms = -1.0;
  solve.arg_a = 2;
  EXPECT_TRUE(trace_filter_keeps(filter, solve));
  solve.arg_a = 3;
  EXPECT_FALSE(trace_filter_keeps(filter, solve));

  // Un-slotted wall-only spans are dropped.
  span_record idle;
  idle.kind = span_kind::pool_idle;
  idle.sim_start_ms = -1.0;
  EXPECT_FALSE(trace_filter_keeps(filter, idle));
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST(ObsTraceLanes, ExportAddsLaneThreadsAndAppliesFilter) {
  tracer t{{1, 16}};
  span_record ring_span;
  ring_span.kind = span_kind::slot_round;
  ring_span.wall_start_us = 10.0;
  ring_span.wall_dur_us = 5.0;
  ring_span.sim_start_ms = 0.0;
  ring_span.sim_dur_ms = 1'000.0;
  ring_span.arg_a = 0;
  t.ring(0).push(ring_span);

  trace_lane lane;
  lane.name = "tail exemplars";
  span_record kept;
  kept.kind = span_kind::request_exemplar;
  kept.sim_start_ms = 500.0;
  kept.sim_dur_ms = 100.0;
  kept.arg_b = 42;
  lane.spans.push_back(kept);
  span_record cut = kept;
  cut.sim_start_ms = 9'000.0;
  cut.arg_b = 43;
  lane.spans.push_back(cut);

  trace_filter filter;
  filter.slot_begin = 0;
  filter.slot_end = 0;
  filter.sim_begin_ms = 0.0;
  filter.sim_end_ms = 1'000.0;

  const std::string path = "obs_timeline_lane_trace.json";
  ASSERT_TRUE(t.export_chrome_trace(path, {"ring"}, {lane}, &filter));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"tail exemplars\""), std::string::npos);
  EXPECT_NE(text.find("\"request_exemplar\""), std::string::npos);
  // The in-window exemplar survives (1 sim ms = 1 trace µs); the one
  // past sim_end_ms is cut.
  EXPECT_NE(text.find("\"ts\":500.000"), std::string::npos);
  EXPECT_EQ(text.find("\"ts\":9000.000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// fleet integration

/// Small fleet scenario crossing several slot boundaries (mirrors
/// test_obs's obs_fleet_scenario).
exp::scenario_spec timeline_fleet_scenario() {
  exp::scenario_spec spec;
  spec.name = "obs_timeline_fleet";
  spec.base_seed = 90210;
  spec.user_count = 48;
  spec.duration = util::minutes(30.0);
  spec.slot_length = util::minutes(10.0);
  spec.gaps = exp::gap_model::exponential;
  spec.arrival_rate_hz = 0.05;
  spec.background_requests_per_burst = 0;
  spec.groups = {{1, "t2.nano", 1, 4.0}, {2, "t2.large", 1, 30.0}};
  spec.fleet_max_total_instances = 40;
  spec.fleet_shards = 4;
  return spec;
}

TEST(ObsTimelineFleet, FingerprintIdenticalAcrossPoolSizes) {
  const exp::scenario_spec spec = timeline_fleet_scenario();
  const tasks::task_pool task_pool;
  fleet::fleet_options options;

  std::uint64_t first = 0;
  for (const std::size_t jobs : {1u, 4u, 16u}) {
    exp::thread_pool pool{jobs};
    const fleet::fleet_result result =
        fleet::run_fleet(spec, options, task_pool, pool);
    ASSERT_TRUE(result.timeline.enabled());
    // One window per slot plus the drain tail, slots in order.
    ASSERT_EQ(result.timeline.size(), result.slot_count + 1);
    for (std::size_t w = 0; w < result.timeline.size(); ++w) {
      EXPECT_EQ(result.timeline.window(w).slot, w);
    }
    // The window deltas sum back to the merged registry totals.
    std::uint64_t requests = 0;
    std::uint64_t snapshots = 0;
    for (std::size_t w = 0; w < result.timeline.size(); ++w) {
      requests += result.timeline.window(w).delta(counter::sdn_requests);
      snapshots +=
          result.timeline.window(w).delta(counter::timeline_snapshots);
    }
    EXPECT_EQ(requests, result.observability.get(counter::sdn_requests));
    EXPECT_EQ(result.observability.get(counter::timeline_snapshots),
              snapshots);
    if (jobs == 1) {
      first = result.timeline.fingerprint();
      EXPECT_GT(requests, 0u);
    } else {
      EXPECT_EQ(result.timeline.fingerprint(), first) << "jobs=" << jobs;
    }
  }
}

TEST(ObsTimelineFleet, FingerprintIdenticalBetweenTracedAndUntracedLegs) {
  const exp::scenario_spec spec = timeline_fleet_scenario();
  const tasks::task_pool task_pool;
  exp::thread_pool pool{2};

  fleet::fleet_options plain;
  const fleet::fleet_result untraced =
      fleet::run_fleet(spec, plain, task_pool, pool);

  tracer t{{spec.fleet_shards + 1, 512}};
  fleet::fleet_options traced_options;
  traced_options.tracer = &t;
  traced_options.trace_sample_every = 8;
  const fleet::fleet_result traced =
      fleet::run_fleet(spec, traced_options, task_pool, pool);

  // Sampled-span counts differ (trace-dependent), the timeline
  // fingerprint must not.
  EXPECT_GT(traced.observability.get(counter::sdn_sampled_spans), 0u);
  EXPECT_EQ(untraced.observability.get(counter::sdn_sampled_spans), 0u);
  EXPECT_EQ(traced.timeline.fingerprint(), untraced.timeline.fingerprint());
  EXPECT_EQ(traced.fingerprint(), untraced.fingerprint());
}

TEST(ObsTimelineFleet, ExemplarsOffLeavesResultIdentical) {
  const exp::scenario_spec spec = timeline_fleet_scenario();
  const tasks::task_pool task_pool;
  exp::thread_pool pool{2};

  fleet::fleet_options on;
  const fleet::fleet_result with_exemplars =
      fleet::run_fleet(spec, on, task_pool, pool);
  fleet::fleet_options off;
  off.exemplar_top_k = 0;
  const fleet::fleet_result without =
      fleet::run_fleet(spec, off, task_pool, pool);

  EXPECT_EQ(with_exemplars.fingerprint(), without.fingerprint());
  // The reservoir's own counter stops moving when it is off; everything
  // the simulation itself counts is unchanged, and the timeline stays on.
  EXPECT_GT(with_exemplars.observability.get(counter::exemplar_admitted), 0u);
  EXPECT_EQ(without.observability.get(counter::exemplar_admitted), 0u);
  EXPECT_EQ(with_exemplars.observability.get(counter::sdn_requests),
            without.observability.get(counter::sdn_requests));
  EXPECT_EQ(with_exemplars.timeline.size(), without.timeline.size());
  EXPECT_FALSE(with_exemplars.exemplars.empty());
  EXPECT_TRUE(without.exemplars.empty());
}

TEST(ObsTimelineFleet, ExemplarsDeterministicAcrossPoolSizes) {
  const exp::scenario_spec spec = timeline_fleet_scenario();
  const tasks::task_pool task_pool;
  fleet::fleet_options options;

  std::vector<exemplar_record> first;
  for (const std::size_t jobs : {1u, 4u}) {
    exp::thread_pool pool{jobs};
    const fleet::fleet_result result =
        fleet::run_fleet(spec, options, task_pool, pool);
    ASSERT_FALSE(result.exemplars.empty());
    EXPECT_LE(result.exemplars.size(),
              options.exemplar_top_k * (result.slot_count + 1));
    if (jobs == 1) {
      first = result.exemplars;
    } else {
      ASSERT_EQ(result.exemplars.size(), first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(result.exemplars[i].request, first[i].request) << i;
        EXPECT_EQ(result.exemplars[i].user, first[i].user) << i;
        EXPECT_EQ(result.exemplars[i].group, first[i].group) << i;
        EXPECT_EQ(result.exemplars[i].slot, first[i].slot) << i;
        EXPECT_EQ(result.exemplars[i].success, first[i].success) << i;
        EXPECT_EQ(result.exemplars[i].response_ms, first[i].response_ms)
            << i;
        EXPECT_EQ(result.exemplars[i].issued_at_ms, first[i].issued_at_ms)
            << i;
      }
    }
  }
}

}  // namespace
}  // namespace mca::obs
