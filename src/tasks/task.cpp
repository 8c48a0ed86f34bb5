#include "tasks/task.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace mca::tasks {
namespace {

// Unpruned tic-tac-toe tree to depth `size`; depth 9 = 280 wu (Fig. 5 band).
double minimax_work_units(std::uint32_t size) noexcept {
  double nodes = 1.0;
  double product = 1.0;
  for (std::uint32_t level = 0; level < size && level < 9; ++level) {
    product *= static_cast<double>(9 - level);
    nodes += product;
  }
  return nodes * (280.0 / 986'410.0);
}

// Backtracking tree grows ~3.1x per row; 9-queens = 22 wu.
double nqueens_work_units(std::uint32_t size) noexcept {
  double units = 22.0;
  for (std::uint32_t n = size; n < 9; ++n) units /= 3.1;
  for (std::uint32_t n = 9; n < size; ++n) units *= 3.1;
  return units;
}

// n log2 n; n = 100,000 ≈ 14 wu.
double quicksort_work_units(std::uint32_t size) noexcept {
  const double n = size;
  return n * std::log2(std::max(n, 2.0)) / 120'000.0;
}

// n^2; n = 3,000 = 30 wu.
double bubblesort_work_units(std::uint32_t size) noexcept {
  const double n = size;
  return n * n / 300'000.0;
}

// n log2 n; n = 100,000 ≈ 17 wu.
double mergesort_work_units(std::uint32_t size) noexcept {
  const double n = size;
  return n * std::log2(std::max(n, 2.0)) / 100'000.0;
}

// Naive recursion makes ~phi^n calls; n = 27 = 15 wu.
double fibonacci_work_units(std::uint32_t size) noexcept {
  constexpr double phi = 1.6180339887498949;
  return 15.0 * std::pow(phi, static_cast<double>(size) - 27.0);
}

// Sieve of Eratosthenes, n ln ln n; n = 1,000,000 ≈ 26 wu.
double sieve_work_units(std::uint32_t size) noexcept {
  const double n = size;
  return n * std::log(std::log(std::max(n, 16.0))) / 100'000.0;
}

// 0/1 DP over `size` items x capacity 10 per item; 200 items ≈ 13 wu.
double knapsack_work_units(std::uint32_t size) noexcept {
  const double cells = static_cast<double>(size) * (size * 10.0);
  return cells / 30'000.0;
}

// Dense n x n multiply, n^3; n = 128 ≈ 26 wu.
double matmul_work_units(std::uint32_t size) noexcept {
  const double n = size;
  return n * n * n / 80'000.0;
}

// Radix-2 FFT, n log2 n; n = 2^16 ≈ 10 wu.
double fft_work_units(std::uint32_t size) noexcept {
  const double n = size;
  return n * std::log2(std::max(n, 2.0)) / 100'000.0;
}

// A row's position is its identity: `random_request` draws an index into
// this table, so reordering the rows moves every fingerprint.
constexpr std::array<task, 10> kTasks{{
    // name, default_size, min_size, max_size, power_of_two_sizes, cost
    // Minimax's default is the full-depth static benchmark, above the
    // depths random draws reach.
    {"minimax", 9, 5, 7, false, minimax_work_units},
    {"nqueens", 9, 6, 10, false, nqueens_work_units},
    {"quicksort", 100'000, 20'000, 200'000, false, quicksort_work_units},
    {"bubblesort", 3'000, 1'000, 5'000, false, bubblesort_work_units},
    {"mergesort", 100'000, 20'000, 200'000, false, mergesort_work_units},
    {"fibonacci", 27, 22, 30, false, fibonacci_work_units},
    {"sieve", 1'000'000, 100'000, 2'000'000, false, sieve_work_units},
    {"knapsack", 200, 100, 400, false, knapsack_work_units},
    {"matmul", 128, 64, 192, false, matmul_work_units},
    // A uniform draw from [2^14, 2^17] rounded down to a power of two:
    // 2^14, 2^15, 2^16 with probability 1/7, 2/7, 4/7; 2^17 ≈ 8.7e-6.
    {"fft", 1u << 16, 1u << 14, 1u << 17, true, fft_work_units},
}};

// The paper's static benchmark task.
constexpr std::size_t kMinimax = 0;

}  // namespace

std::size_t task_pool::size() const noexcept { return kTasks.size(); }

const task& task_pool::at(std::size_t i) const { return kTasks.at(i); }

task_request task_pool::random_request(util::rng& rng) const {
  const auto index = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(kTasks.size()) - 1));
  return request_for(index, rng);
}

task_request task_pool::request_for(std::size_t index, util::rng& rng) const {
  const task& chosen = kTasks.at(index);
  auto size = static_cast<std::uint32_t>(
      rng.uniform_int(chosen.min_size, chosen.max_size));
  if (chosen.power_of_two_sizes) {
    // Round down to the nearest power of two.
    std::uint32_t pow2 = chosen.min_size;
    while (pow2 * 2 <= size) pow2 *= 2;
    size = pow2;
  }
  return {&chosen, size};
}

task_request task_pool::static_minimax_request() const {
  const task& minimax = kTasks[kMinimax];
  return {&minimax, minimax.default_size};
}

}  // namespace mca::tasks
