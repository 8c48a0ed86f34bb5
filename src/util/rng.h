// Deterministic, seedable pseudo-random number generation for simulations.
//
// Every stochastic component of the library takes an explicit `rng&` (or a
// seed) so experiments are reproducible bit-for-bit across runs.  The
// generator is xoshiro256** seeded through splitmix64, which is fast,
// well-distributed, and lets us cheaply derive independent child streams.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>

namespace mca::util {

/// splitmix64 step; used for seeding and for deriving child streams.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Not thread-safe by design: give each simulated actor its own stream via
/// `fork()` instead of sharing one generator behind a lock.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child stream; deterministic given the parent
  /// state.  Advances the parent by one draw.
  rng fork() noexcept { return rng{(*this)()}; }

  /// Counter-based stream splitting: the generator for replication
  /// `stream` of an experiment seeded with `seed`.  Unlike seeding with
  /// `seed + stream` — whose splitmix chains are the *same* sequence
  /// entered at adjacent offsets, so neighboring replications share most
  /// of their state words — each (seed, stream) pair here selects a state
  /// by xor-combining two independent splitmix64 lanes, one keyed by the
  /// seed and one by the stream counter.  Adjacent stream ids (and
  /// adjacent seeds) therefore differ pseudorandomly in every state bit.
  /// Pure function of its arguments: any replication can be reproduced in
  /// isolation, in any order, on any thread.
  static rng split(std::uint64_t seed, std::uint64_t stream) noexcept {
    std::uint64_t seed_lane = seed;
    std::uint64_t stream_lane = stream ^ 0x6a09e667f3bcc909ULL;
    rng r;
    for (auto& word : r.state_) {
      word = splitmix64(seed_lane) ^ splitmix64(stream_lane);
    }
    // xoshiro must not start from the all-zero state; vanishingly rare,
    // but cheap to rule out entirely.
    if ((r.state_[0] | r.state_[1] | r.state_[2] | r.state_[3]) == 0) {
      r.state_[0] = 0x9e3779b97f4a7c15ULL;
    }
    return r;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument{"uniform_int: lo > hi"};
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Rejection sampling for exact uniformity (span==0 means full range).
    if (span == 0) return static_cast<std::int64_t>((*this)());
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw = (*this)();
    while (draw >= limit) draw = (*this)();
    return lo + static_cast<std::int64_t>(draw % span);
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate) {
    if (rate <= 0) throw std::invalid_argument{"exponential: rate <= 0"};
    return -std::log1p(-uniform()) / rate;
  }

  /// Standard normal via Box–Muller (single value; simple and adequate here).
  double normal() noexcept {
    const double u1 = 1.0 - uniform();  // avoid log(0)
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double sd) noexcept { return mean + sd * normal(); }

  /// Lognormal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Picks a uniformly random element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument{"pick: empty span"};
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mca::util
