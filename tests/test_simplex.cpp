#include "ilp/simplex.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.h"

namespace mca::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Simplex, SimpleTwoVariableMinimum) {
  // min 2x + 3y  s.t. x + y >= 4, x >= 0, y >= 0  -> x=4, y=0, obj=8.
  problem p;
  const auto x = p.add_variable(2.0);
  const auto y = p.add_variable(3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 4.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 0.0, 1e-9);
}

TEST(Simplex, BindingUpperBound) {
  // min -x (maximize x) with x <= 7.5.
  problem p;
  const auto x = p.add_variable(-1.0, 0.0, 7.5);
  p.add_constraint({{x, 1.0}}, relation::less_equal, 100.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.values[x], 7.5, 1e-9);
  EXPECT_NEAR(s.objective, -7.5, 1e-9);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 6, y <= 2 -> y=2, x=2? check: x+2y=6, minimize
  // x+y = (6-2y)+y = 6-y -> y as large as possible: y=2, x=2, obj=4.
  problem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(1.0, 0.0, 2.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, relation::equal, 6.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 2.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 3 cannot hold.
  problem p;
  const auto x = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}}, relation::less_equal, 1.0);
  p.add_constraint({{x, 1.0}}, relation::greater_equal, 3.0);
  const auto s = solve_lp(p);
  EXPECT_EQ(s.status, solve_status::infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x with only a lower-bounding constraint -> x can grow forever.
  problem p;
  const auto x = p.add_variable(-1.0);
  p.add_constraint({{x, 1.0}}, relation::greater_equal, 0.0);
  const auto s = solve_lp(p);
  EXPECT_EQ(s.status, solve_status::unbounded);
}

TEST(Simplex, ShiftedLowerBounds) {
  // min x + y with x >= 2, y >= 3 and x + y >= 10.
  problem p;
  const auto x = p.add_variable(1.0, 2.0);
  const auto y = p.add_variable(1.0, 3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 10.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
  EXPECT_GE(s.values[x], 2.0 - 1e-9);
  EXPECT_GE(s.values[y], 3.0 - 1e-9);
}

TEST(Simplex, ClassicMaximizationViaNegation) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (Dantzig's example):
  // optimum (2,6), objective 36.
  problem p;
  const auto x = p.add_variable(-3.0, 0.0, 4.0);
  const auto y = p.add_variable(-5.0);
  p.add_constraint({{y, 2.0}}, relation::less_equal, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, relation::less_equal, 18.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(-s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.values[x], 2.0, 1e-9);
  EXPECT_NEAR(s.values[y], 6.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex (degeneracy);
  // Bland's rule must still terminate.
  problem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 2.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, relation::greater_equal, 4.0);
  p.add_constraint({{x, 3.0}, {y, 3.0}}, relation::greater_equal, 6.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, ZeroRhsEquality) {
  // x - y = 0, x + y >= 2, min x -> x=y=1.
  problem p;
  const auto x = p.add_variable(1.0);
  const auto y = p.add_variable(0.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, relation::equal, 0.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 2.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.values[x], 1.0, 1e-9);
  EXPECT_NEAR(s.values[y], 1.0, 1e-9);
}

TEST(Simplex, ThrowsOnNoVariables) {
  problem p;
  EXPECT_THROW(solve_lp(p), std::invalid_argument);
}

TEST(Simplex, ThrowsOnInfiniteLowerBound) {
  problem p;
  p.add_variable(1.0, -kInf);
  EXPECT_THROW(solve_lp(p), std::invalid_argument);
}

TEST(Simplex, SolutionSatisfiesProblemFeasibility) {
  problem p;
  const auto x = p.add_variable(1.5, 1.0, 10.0);
  const auto y = p.add_variable(0.5, 0.0, 8.0);
  const auto z = p.add_variable(2.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}, {z, 1.0}}, relation::greater_equal,
                   12.0);
  p.add_constraint({{x, 1.0}, {z, 1.0}}, relation::less_equal, 9.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_TRUE(p.is_feasible(s.values, 1e-6));
}

TEST(Problem, ValidationErrors) {
  problem p;
  EXPECT_THROW(p.add_variable(1.0, 5.0, 2.0), std::invalid_argument);
  const auto x = p.add_variable(1.0);
  EXPECT_THROW(p.add_constraint({}, relation::equal, 0.0),
               std::invalid_argument);
  EXPECT_THROW(p.add_constraint({{x + 7, 1.0}}, relation::equal, 0.0),
               std::out_of_range);
}

TEST(Problem, ObjectiveAndFeasibilityHelpers) {
  problem p;
  const auto x = p.add_variable(2.0, 0.0, 5.0);
  const auto y = p.add_integer_variable(3.0, 0.0, 5.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 6.0);
  EXPECT_TRUE(p.has_integer_variables());
  EXPECT_DOUBLE_EQ(p.objective_value({1.0, 2.0}), 8.0);
  EXPECT_TRUE(p.is_feasible({1.0, 2.0}));
  EXPECT_FALSE(p.is_feasible({1.0, 2.5}));   // integer violated
  EXPECT_FALSE(p.is_feasible({4.0, 3.0}));   // row violated
  EXPECT_FALSE(p.is_feasible({-1.0, 0.0}));  // bound violated
  EXPECT_FALSE(p.is_feasible({1.0}));        // wrong arity
}

// Property sweep: on random cover LPs the simplex optimum must be
// feasible and no worse than any randomly sampled feasible point.
class SimplexOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexOptimality, BeatsRandomFeasiblePoints) {
  mca::util::rng rng{GetParam()};
  problem p;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 4));
  for (std::size_t i = 0; i < n; ++i) {
    p.add_variable(rng.uniform(0.5, 4.0), 0.0, 50.0);
  }
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<linear_term> terms;
    for (std::size_t i = 0; i < n; ++i) {
      terms.push_back({i, rng.uniform(0.2, 3.0)});
    }
    p.add_constraint(std::move(terms), relation::greater_equal,
                     rng.uniform(1.0, 20.0));
  }
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  ASSERT_TRUE(p.is_feasible(s.values, 1e-6));
  // Sample random points; every feasible one must cost at least as much.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(0.0, 50.0);
    if (p.is_feasible(x)) {
      EXPECT_GE(p.objective_value(x), s.objective - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexOptimality,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace mca::ilp
