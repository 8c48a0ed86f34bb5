// Wall-clock measurement helper shared by the fleet runner (its
// coordination time) and mca_bench.
//
// mca-lint: allow-file(det-wallclock) bench timing harness: wall time IS
// the measurement here; nothing in this header feeds a digest or
// fingerprint (the determinism gates compare digests, not wall times).
#pragma once

#include <chrono>
#include <utility>

namespace mca::exp {

/// Wall time of one fn() call, in seconds.
template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace mca::exp
