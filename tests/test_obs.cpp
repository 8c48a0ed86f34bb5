// Observability layer: registry determinism, span-ring semantics, Chrome
// trace export, and the fleet integration (counter fingerprints identical
// across pool sizes, slot-round span structure under a fixed seed).
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "exp/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "obs/slo.h"
#include "obs/tracer.h"
#include "tasks/task.h"

namespace mca::obs {
namespace {

// ---------------------------------------------------------------------------
// registry

TEST(ObsRegistry, CountersAddAndMergeBySum) {
  registry a;
  registry b;
  a.add(counter::sdn_requests);
  a.add(counter::sdn_requests, 4);
  b.add(counter::sdn_requests, 10);
  b.add(counter::ilp_solves, 2);
  a.merge(b);
  EXPECT_EQ(a.get(counter::sdn_requests), 15u);
  EXPECT_EQ(a.get(counter::ilp_solves), 2u);
  EXPECT_EQ(b.get(counter::sdn_requests), 10u);  // b untouched
}

TEST(ObsRegistry, SeriesTrackCountSumMaxAndMerge) {
  registry a;
  a.observe(series::ps_queue_depth, 3.0);
  a.observe(series::ps_queue_depth, 7.0);
  EXPECT_EQ(a.stats(series::ps_queue_depth).samples, 2u);
  EXPECT_DOUBLE_EQ(a.stats(series::ps_queue_depth).sum, 10.0);
  EXPECT_DOUBLE_EQ(a.stats(series::ps_queue_depth).max, 7.0);
  EXPECT_DOUBLE_EQ(a.stats(series::ps_queue_depth).mean(), 5.0);

  registry b;
  b.observe(series::ps_queue_depth, 20.0);
  a.merge(b);
  EXPECT_EQ(a.stats(series::ps_queue_depth).samples, 3u);
  EXPECT_DOUBLE_EQ(a.stats(series::ps_queue_depth).max, 20.0);
}

TEST(ObsRegistry, FingerprintExcludesSchedulingDependentCounters) {
  registry a;
  registry b;
  a.add(counter::sdn_requests, 100);
  b.add(counter::sdn_requests, 100);
  // Pool telemetry differs between "runs" — the fingerprint must not.
  a.add(counter::pool_idle_waits, 17);
  b.add(counter::pool_tasks_executed, 99);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_TRUE(counter_is_scheduling_dependent(counter::pool_tasks_executed));
  EXPECT_TRUE(counter_is_scheduling_dependent(counter::pool_idle_waits));
  EXPECT_FALSE(counter_is_scheduling_dependent(counter::sdn_requests));
  // A deterministic counter does move it.
  b.add(counter::sdn_failures);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ObsRegistry, FingerprintCoversSeriesAndSlo) {
  registry a;
  a.resize_groups(2);
  registry b;
  b.resize_groups(2);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  a.observe(series::ps_event_batch, 4.0);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b.observe(series::ps_event_batch, 4.0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  a.observe_response(0, 120.0);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ObsRegistry, SloRowsPerGroupAndFleetTotal) {
  registry reg;
  reg.resize_groups(2);
  for (int i = 0; i < 100; ++i) {
    reg.observe_response(0, 100.0 + i);  // group 0: 100..199 ms
    reg.observe_response(1, 1000.0);     // group 1: constant 1 s
  }
  reg.observe_response(7, 5.0);  // out of range: dropped, no crash
  ASSERT_EQ(reg.group_count(), 2u);
  const slo_row fleet = slo_from_histogram(reg.fleet_slo(), "fleet");
  const slo_row group0 = slo_from_histogram(reg.group_slo(0), "group 0");
  const slo_row group1 = slo_from_histogram(reg.group_slo(1), "group 1");
  EXPECT_EQ(fleet.label, "fleet");
  EXPECT_EQ(fleet.samples, 200u);
  EXPECT_EQ(group0.samples, 100u);
  EXPECT_EQ(group1.samples, 100u);
  // Group 0 percentiles rise through the 100..199 ms band.
  EXPECT_GT(group0.p99_ms, group0.p50_ms);
  EXPECT_GE(group0.p999_ms, group0.p99_ms);
  // Group 1 is a point mass: every percentile within 2^-5 of 1 s.
  EXPECT_NEAR(group1.p50_ms, 1000.0, 1000.0 / 32.0);
  EXPECT_NEAR(group1.p999_ms, 1000.0, 1000.0 / 32.0);
}

// ---------------------------------------------------------------------------
// span ring

TEST(ObsSpanRing, WraparoundKeepsNewestSpans) {
  span_ring ring{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    span_record r;
    r.arg_a = i;
    ring.push(r);
  }
  EXPECT_EQ(ring.size() + ring.dropped(), 10u);  // every push counted
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  // Oldest-first iteration over the surviving window: 6, 7, 8, 9.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.at(i).arg_a, 6u + i) << "slot " << i;
  }
}

TEST(ObsSpanRing, UnderfilledRingIsOldestFirst) {
  span_ring ring{8};
  for (std::uint64_t i = 0; i < 3; ++i) {
    span_record r;
    r.arg_a = i;
    ring.push(r);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.at(0).arg_a, 0u);
  EXPECT_EQ(ring.at(2).arg_a, 2u);
}

TEST(ObsSpanRing, ZeroCapacityThrows) {
  EXPECT_THROW(span_ring{0}, std::invalid_argument);
  EXPECT_THROW(tracer({0, 16}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Chrome trace export

/// Minimal recursive-descent JSON syntax checker — no DOM, just enough to
/// prove the exporter emits well-formed JSON a real viewer will accept.
class json_checker {
 public:
  explicit json_checker(std::string_view text)
      : p_{text.data()}, end_{text.data() + text.size()} {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  bool value() {
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ != end_ && *p_ == '}') { ++p_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == '}') { ++p_; return true; }
      return false;
    }
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ != end_ && *p_ == ']') { ++p_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (p_ == end_) return false;
      if (*p_ == ',') { ++p_; continue; }
      if (*p_ == ']') { ++p_; return true; }
      return false;
    }
  }
  bool string() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                          *p_ == '+')) {
      digits = digits || (*p_ >= '0' && *p_ <= '9');
      ++p_;
    }
    return digits && p_ != start;
  }
  bool literal(const char* word) {
    for (const char* w = word; *w != '\0'; ++w, ++p_) {
      if (p_ == end_ || *p_ != *w) return false;
    }
    return true;
  }
  void skip_ws() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  const char* p_;
  const char* end_;
};

std::size_t count_occurrences(const std::string& text,
                              std::string_view needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

std::string export_to_string(const tracer& t,
                             const std::vector<std::string>& names) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  t.export_chrome_trace(f, names);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string text(static_cast<std::size_t>(size), '\0');
  const std::size_t read = std::fread(text.data(), 1, text.size(), f);
  std::fclose(f);
  EXPECT_EQ(read, text.size());
  return text;
}

TEST(ObsTracer, ChromeTraceParsesAndMatchesSchema) {
  tracer t{{2, 16}};
  {
    span_record r;  // wall-only span
    r.wall_start_us = 10.0;
    r.wall_dur_us = 5.0;
    r.kind = span_kind::coordinator_solve;
    r.arg_a = 3;
    t.ring(0).push(r);
  }
  {
    span_record r;  // dual-clock span: wall + sim events
    r.wall_start_us = 20.0;
    r.wall_dur_us = 2.0;
    r.sim_start_ms = 600000.0;
    r.sim_dur_ms = 600000.0;
    r.kind = span_kind::shard_advance;
    r.arg_a = 1;
    r.arg_b = 0;
    t.ring(1).push(r);
  }

  const std::string text =
      export_to_string(t, {"coordinator", "shard 0"});
  json_checker checker{text};
  EXPECT_TRUE(checker.valid()) << text;

  // Chrome trace-event schema: a traceEvents array of ph:"X" complete
  // events plus ph:"M" metadata naming both processes and every ring.
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  // 1 wall-only + 1 dual-clock span -> 3 complete events.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(count_occurrences(text, "\"name\":\"shard_advance\""), 2u);
  EXPECT_EQ(count_occurrences(text, "\"name\":\"coordinator_solve\""), 1u);
  EXPECT_EQ(count_occurrences(text, "\"name\":\"process_name\""), 2u);
  // thread_name metadata for each ring on each process timeline.
  EXPECT_EQ(count_occurrences(text, "\"name\":\"thread_name\""), 4u);
  EXPECT_NE(text.find("coordinator"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":10.000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":5.000"), std::string::npos);
  // The sim event of the dual-clock span (1 sim ms = 1 us).
  EXPECT_NE(text.find("\"ts\":600000.000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// fleet integration

/// Small fleet scenario crossing several slot boundaries (mirrors
/// test_fleet's tiny_fleet, trimmed for three runs per test).
exp::scenario_spec obs_fleet_scenario() {
  exp::scenario_spec spec;
  spec.name = "obs_fleet";
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

TEST(ObsFleet, CounterFingerprintIdenticalAcrossPoolSizes) {
  const exp::scenario_spec spec = obs_fleet_scenario();
  const tasks::task_pool task_pool;
  fleet::fleet_options options;

  std::uint64_t first_obs = 0;
  std::uint64_t first_agg = 0;
  for (const std::size_t jobs : {1u, 4u, 16u}) {
    exp::thread_pool pool{jobs};
    const fleet::fleet_result result =
        fleet::run_fleet(spec, options, task_pool, pool);
    if (jobs == 1) {
      first_obs = result.observability.fingerprint();
      first_agg = result.fingerprint();
      // The counters saw real traffic.
      EXPECT_GT(result.observability.get(counter::sdn_requests), 0u);
      EXPECT_EQ(result.observability.get(counter::sdn_requests),
                result.aggregate.requests);
      EXPECT_EQ(result.observability.get(counter::sdn_requests),
                result.observability.get(counter::sdn_successes) +
                    result.observability.get(counter::sdn_failures));
      EXPECT_EQ(result.observability.get(counter::fleet_slot_rounds),
                result.slot_count);
      EXPECT_EQ(result.observability.get(counter::ilp_solves),
                result.ilp_solves);
      EXPECT_GT(result.observability.get(counter::ps_submits), 0u);
      EXPECT_GT(result.observability.get(counter::slot_boundaries), 0u);
      EXPECT_GT(result.observability.stats(series::ps_queue_depth).samples,
                0u);
    } else {
      EXPECT_EQ(result.observability.fingerprint(), first_obs)
          << "jobs=" << jobs;
      EXPECT_EQ(result.fingerprint(), first_agg) << "jobs=" << jobs;
    }
    // Scheduling-dependent pool telemetry is present but outside the
    // fingerprint; executed covers at least one task per shard per round.
    EXPECT_GE(result.observability.get(counter::pool_tasks_executed),
              result.shard_count);
  }
}

TEST(ObsFleet, SlotRoundSpanStructureUnderFixedSeed) {
  const exp::scenario_spec spec = obs_fleet_scenario();
  const tasks::task_pool task_pool;
  const std::size_t shards = spec.fleet_shards;
  const std::size_t jobs = 2;

  // Capacity comfortably above the spans a shard produces (advances +
  // sampled lifecycles) so nothing wraps and the structure is complete.
  tracer t{{shards + 1 + jobs, 512}};
  exp::thread_pool pool{jobs};
  fleet::fleet_options options;
  options.tracer = &t;
  options.trace_sample_every = 8;
  const fleet::fleet_result result =
      fleet::run_fleet(spec, options, task_pool, pool);
  ASSERT_EQ(result.shard_count, shards);
  ASSERT_GT(result.slot_count, 0u);

  // Coordinator ring: one slot_round span per boundary, slots in order,
  // each with the slot's simulated extent.
  const span_ring& coord = t.ring(shards);
  std::vector<const span_record*> rounds;
  bool has_solve = false;
  for (std::size_t i = 0; i < coord.size(); ++i) {
    const span_record& s = coord.at(i);
    if (s.kind == span_kind::slot_round) rounds.push_back(&s);
    if (s.kind == span_kind::coordinator_solve) has_solve = true;
  }
  ASSERT_EQ(rounds.size(), result.slot_count);
  EXPECT_TRUE(has_solve);
  for (std::size_t slot = 0; slot < rounds.size(); ++slot) {
    EXPECT_EQ(rounds[slot]->arg_a, slot);
    EXPECT_DOUBLE_EQ(rounds[slot]->sim_start_ms,
                     static_cast<double>(slot) * spec.slot_length);
    EXPECT_DOUBLE_EQ(rounds[slot]->sim_dur_ms, spec.slot_length);
    EXPECT_GE(rounds[slot]->wall_dur_us, 0.0);
  }

  // Every shard ring: one shard_advance per round, tagged with its own
  // shard index and nested (on the wall clock) inside its slot round.
  for (std::size_t k = 0; k < shards; ++k) {
    const span_ring& ring = t.ring(k);
    std::size_t advances = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const span_record& s = ring.at(i);
      if (s.kind != span_kind::shard_advance) continue;
      EXPECT_EQ(s.arg_b, k);
      ASSERT_LT(s.arg_a, rounds.size());
      const span_record& round = *rounds[s.arg_a];
      EXPECT_GE(s.wall_start_us, round.wall_start_us);
      EXPECT_LE(s.wall_start_us + s.wall_dur_us,
                round.wall_start_us + round.wall_dur_us + 1e-3);
      ++advances;
    }
    EXPECT_EQ(advances, result.slot_count) << "shard " << k;
  }

  // Sampled request lifecycles landed in shard rings.
  EXPECT_GT(result.observability.get(counter::sdn_sampled_spans), 0u);
  bool has_lifecycle = false;
  for (std::size_t k = 0; k < shards; ++k) {
    for (std::size_t i = 0; i < t.ring(k).size(); ++i) {
      has_lifecycle = has_lifecycle ||
                      t.ring(k).at(i).kind == span_kind::request_lifecycle;
    }
  }
  EXPECT_TRUE(has_lifecycle);
}

TEST(ObsFleet, TracerWithTooFewRingsIsRejected) {
  const exp::scenario_spec spec = obs_fleet_scenario();
  const tasks::task_pool task_pool;
  exp::thread_pool pool{1};
  tracer t{{spec.fleet_shards, 16}};  // missing the coordinator ring
  fleet::fleet_options options;
  options.tracer = &t;
  EXPECT_THROW(fleet::run_fleet(spec, options, task_pool, pool),
               std::invalid_argument);
}

}  // namespace
}  // namespace mca::obs
