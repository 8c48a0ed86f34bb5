#include "tasks/task.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>

namespace mca::tasks {
namespace {

class TaskPoolTest : public ::testing::Test {
 protected:
  task_pool pool_;
};

TEST_F(TaskPoolTest, HasExactlyTenTasks) { EXPECT_EQ(pool_.size(), 10u); }

TEST_F(TaskPoolTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    names.insert(std::string{pool_.at(i).name});
  }
  EXPECT_EQ(names.size(), 10u);
}

TEST_F(TaskPoolTest, RandomRequestsStayInRange) {
  util::rng rng{42};
  for (int i = 0; i < 500; ++i) {
    const auto request = pool_.random_request(rng);
    ASSERT_NE(request.algorithm, nullptr);
    EXPECT_GE(request.size, request.algorithm->min_size);
    EXPECT_LE(request.size, request.algorithm->max_size);
    EXPECT_GT(request.work_units(), 0.0);
  }
}

TEST_F(TaskPoolTest, RandomRequestsCoverAllTasks) {
  util::rng rng{7};
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(std::string{pool_.random_request(rng).algorithm->name});
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST_F(TaskPoolTest, StaticMinimaxUsesDefaultSize) {
  const auto request = pool_.static_minimax_request();
  EXPECT_EQ(request.algorithm->name, "minimax");
  EXPECT_EQ(request.size, request.algorithm->default_size);
  // The paper's static benchmark task should be the heavyweight of the
  // pool: ~280 work units (≈280 ms on the reference core).
  EXPECT_NEAR(request.work_units(), 280.0, 5.0);
}

TEST_F(TaskPoolTest, MeanRandomWorkIsModerate) {
  util::rng rng{42};
  double total = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    total += pool_.random_request(rng).work_units();
  }
  const double mean = total / 10'000.0;
  // Random pool draws average a few tens of work units — the calibration
  // the Fig. 4 characterization relies on.
  EXPECT_GT(mean, 10.0);
  EXPECT_LT(mean, 60.0);
}

TEST_F(TaskPoolTest, FftSizesArePowersOfTwo) {
  util::rng rng{11};
  for (int i = 0; i < 2'000; ++i) {
    const auto request = pool_.random_request(rng);
    if (request.algorithm->name == "fft") {
      EXPECT_EQ(request.size & (request.size - 1), 0u);
    }
  }
}

// The cost table, pinned bit for bit: each row's name, position and size
// triple, and its work units at default, minimum and maximum size (hex-float
// literals, compared as bit patterns).  Every simulated cost reads this
// table, so a formula that drifts fails here with its task and size named.
TEST_F(TaskPoolTest, CostTablePinnedBitForBit) {
  struct row {
    std::string_view name;
    std::uint32_t default_size, min_size, max_size;
    double default_wu, min_wu, max_wu;
  };
  constexpr std::array<row, 10> expected{{
      {"minimax", 9, 5, 7, 0x1.18p+8, 0x1.54440c47e3939p+2,
       0x1.27f330935eaaep+6},
      {"nqueens", 9, 6, 10, 0x1.6p+4, 0x1.7a19cbfa0db29p-1,
       0x1.10ccccccccccdp+6},
      {"quicksort", 100'000, 20'000, 200'000, 0x1.baec7a9deb4ebp+3,
       0x1.30cdf5ba66cf6p+1, 0x1.d597254895f96p+4},
      {"bubblesort", 3'000, 1'000, 5'000, 0x1.ep+4, 0x1.aaaaaaaaaaaabp+1,
       0x1.4d55555555555p+6},
      {"mergesort", 100'000, 20'000, 200'000, 0x1.09c1165ec0627p+4,
       0x1.6dc3f3ac7b5f4p+1, 0x1.19c1165ec0627p+5},
      {"fibonacci", 27, 22, 30, 0x1.ep+3, 0x1.5a40a9584ad24p+0,
       0x1.fc54021de755ep+5},
      {"sieve", 1'000'000, 100'000, 2'000'000, 0x1.a4206fd33c1c8p+4,
       0x1.38c3a2fd7eb38p+1, 0x1.abf593f7da63ap+5},
      {"knapsack", 200, 100, 400, 0x1.aaaaaaaaaaaabp+3, 0x1.aaaaaaaaaaaabp+1,
       0x1.aaaaaaaaaaaabp+5},
      {"matmul", 128, 64, 192, 0x1.a36e2eb1c432dp+4, 0x1.a36e2eb1c432dp+1,
       0x1.61e4f765fd8aep+6},
      {"fft", 1u << 16, 1u << 14, 1u << 17, 0x1.4f8b588e368f1p+3,
       0x1.2599ed7c6fbd2p+1, 0x1.64840e1719f8p+4},
  }};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(pool_.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const task& t = pool_.at(i);
    const row& want = expected[i];
    SCOPED_TRACE(std::string{want.name});
    EXPECT_EQ(t.name, want.name) << "position " << i;
    EXPECT_EQ(t.default_size, want.default_size);
    EXPECT_EQ(t.min_size, want.min_size);
    EXPECT_EQ(t.max_size, want.max_size);
    EXPECT_EQ(bits(t.work_units(want.default_size)), bits(want.default_wu))
        << "size " << want.default_size;
    EXPECT_EQ(bits(t.work_units(want.min_size)), bits(want.min_wu))
        << "size " << want.min_size;
    EXPECT_EQ(bits(t.work_units(want.max_size)), bits(want.max_wu))
        << "size " << want.max_size;
  }
}

// The first 32 random draws from seed 42 (task position, size): the task
// index and size law every random mix and background burst draws through.
TEST_F(TaskPoolTest, RandomDrawsPinned) {
  constexpr std::array<std::pair<std::size_t, std::uint32_t>, 32> expected{{
      {2, 95'548},  {9, 16'384}, {6, 1'457'525}, {4, 138'232},
      {8, 150},     {9, 65'536}, {0, 6},         {3, 2'974},
      {1, 7},       {5, 29},     {9, 16'384},    {9, 16'384},
      {2, 51'763},  {4, 73'089}, {2, 180'826},   {1, 8},
      {8, 146},     {6, 333'494}, {7, 197},      {4, 137'280},
      {3, 4'011},   {9, 16'384}, {1, 9},         {0, 7},
      {9, 32'768},  {5, 27},     {8, 125},       {6, 1'065'818},
      {3, 1'206},   {5, 25},     {8, 160},       {5, 24},
  }};
  util::rng rng{42};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const auto request = pool_.random_request(rng);
    std::size_t index = 0;
    while (index < pool_.size() && &pool_.at(index) != request.algorithm) {
      ++index;
    }
    EXPECT_EQ(index, expected[k].first) << "draw " << k;
    EXPECT_EQ(request.size, expected[k].second) << "draw " << k;
  }
}

TEST(TaskRequest, NullAlgorithmHasZeroWork) {
  task_request empty;
  EXPECT_EQ(empty.work_units(), 0.0);
}

// Property sweep: work_units must be positive and monotone non-decreasing
// in size for every pool member.
class WorkUnitsMonotone : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkUnitsMonotone, PositiveAndNonDecreasing) {
  task_pool pool;
  const task& t = pool.at(GetParam());
  double last = 0.0;
  const std::uint32_t lo = t.min_size;
  const std::uint32_t hi = t.max_size;
  for (int step = 0; step <= 10; ++step) {
    const auto size = static_cast<std::uint32_t>(
        lo + (static_cast<std::uint64_t>(hi - lo) * step) / 10);
    const double wu = t.work_units(size);
    EXPECT_GT(wu, 0.0) << t.name << " size=" << size;
    EXPECT_GE(wu, last - 1e-12) << t.name << " size=" << size;
    last = wu;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTasks, WorkUnitsMonotone,
                         ::testing::Range<std::size_t>(0, 10));

}  // namespace
}  // namespace mca::tasks
