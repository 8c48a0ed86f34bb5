// Replication runner: farm N independent replications out to the pool,
// collect results in replication order.
//
// Determinism contract: a replication is a pure function of its
// (seed, index) pair — it draws randomness only from the rng stream the
// context hands it (util::rng::split), never from wall clock, thread id,
// or shared mutable state.  The pool's next unclaimed index is the only
// state replications share; everything a simulation numbers (request
// ids) it numbers itself.  Results and failures land in slot
// arrays indexed by replication, and any merge runs *after* the pool
// drains, walking those arrays in index order — so the merged output is
// bit-identical whatever the thread count or completion order.
//
// A replication that throws is never silently dropped: its index, seed,
// and message are recorded in the outcome's `errors`, and the remaining
// replications still run to completion.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/thread_pool.h"
#include "util/rng.h"

namespace mca::exp {

/// Which replications to run: one entry per replication, carrying the
/// seed that replication's rng stream is split from.
struct replication_plan {
  std::vector<std::uint64_t> seeds;

  std::size_t count() const noexcept { return seeds.size(); }

  /// The standard seed sweep: `count` replications of one experiment
  /// seed; replication i draws from rng::split(base_seed, i).
  static replication_plan sweep(std::uint64_t base_seed, std::size_t count) {
    replication_plan plan;
    plan.seeds.assign(count, base_seed);
    return plan;
  }

  /// One replication per explicit seed (e.g. a --seeds CLI list);
  /// replication i draws from rng::split(seeds[i], i).
  static replication_plan explicit_seeds(std::vector<std::uint64_t> seeds) {
    replication_plan plan;
    plan.seeds = std::move(seeds);
    return plan;
  }
};

/// Handed to the replication body: identity plus the independent rng
/// stream this replication must draw all randomness from.
struct replication_context {
  std::size_t index = 0;
  std::uint64_t seed = 0;

  util::rng stream() const noexcept { return util::rng::split(seed, index); }
};

/// A replication that threw, reported instead of dropped.
struct replication_error {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::string message;
};

/// All replications of one plan: per-index results (nullopt where that
/// replication failed) plus the failures themselves.
template <typename T>
struct replication_outcome {
  std::vector<std::optional<T>> results;  ///< indexed by replication
  std::vector<replication_error> errors;  ///< ascending by index

  std::size_t completed() const noexcept {
    std::size_t n = 0;
    for (const auto& r : results) {
      if (r.has_value()) ++n;
    }
    return n;
  }
};

/// Runs fn(context) for every replication in the plan on `pool`.
/// T = fn's return type; results are positioned by replication index.
template <typename Fn>
auto run_replications(thread_pool& pool, const replication_plan& plan,
                      Fn&& fn)
    -> replication_outcome<
        std::invoke_result_t<Fn&, const replication_context&>> {
  using T = std::invoke_result_t<Fn&, const replication_context&>;
  static_assert(!std::is_void_v<T>,
                "replication body must return its metrics");
  replication_outcome<T> outcome;
  outcome.results.resize(plan.count());
  // Each replication writes only its own slot; the failures are compacted
  // in index order after the pool drains.
  std::vector<std::optional<std::string>> failures(plan.count());
  parallel_for(pool, plan.count(), [&](std::size_t i) {
    const replication_context context{i, plan.seeds[i]};
    try {
      outcome.results[i].emplace(fn(context));
    } catch (const std::exception& e) {
      failures[i].emplace(e.what());
    } catch (...) {
      failures[i].emplace("unknown exception");
    }
  });
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (failures[i]) {
      outcome.errors.push_back({i, plan.seeds[i], std::move(*failures[i])});
    }
  }
  return outcome;
}

/// Order-preserving parallel map over [0, n): the pool-backed drop-in for
/// a bench's `for (config : configs)` loop.  If any iteration throws, the
/// lowest-index exception is rethrown after every iteration finished.
template <typename Fn>
auto parallel_map(thread_pool& pool, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using T = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<T>> slots(n);
  std::vector<std::exception_ptr> thrown(n);
  parallel_for(pool, n, [&](std::size_t i) {
    try {
      slots[i].emplace(fn(i));
    } catch (...) {
      thrown[i] = std::current_exception();
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (thrown[i]) std::rethrow_exception(thrown[i]);
  }
  std::vector<T> results;
  results.reserve(n);
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace mca::exp
