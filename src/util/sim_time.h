// Simulated-time vocabulary.
//
// The whole library measures simulated time in milliseconds held in a
// double (the paper reports every quantity in milliseconds; sub-millisecond
// resolution matters only for queueing order, which doubles handle fine over
// the day-scale horizons simulated here).
#pragma once

namespace mca::util {

/// Milliseconds of simulated time (point or duration by context).
using time_ms = double;

constexpr time_ms seconds(double n) noexcept { return n * 1000.0; }
constexpr time_ms minutes(double n) noexcept { return n * 60'000.0; }
constexpr time_ms hours(double n) noexcept { return n * 3'600'000.0; }

constexpr double to_hours(time_ms t) noexcept { return t / 3'600'000.0; }

}  // namespace mca::util
