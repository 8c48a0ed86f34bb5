// Cross-check net for the bounded-variable simplex: every randomized
// problem is solved twice — once with box upper bounds handled implicitly
// (the production path) and once with each finite upper bound rewritten as
// an explicit `x_j <= u` constraint row over an unbounded variable (the
// formulation the pre-rewrite tableau materialized internally).  The two
// models describe the same polytope, so statuses must agree and optimal
// objectives must coincide; any bound-flip, flipped-column, or
// at-upper-extraction bug shows up as a divergence.
#include "ilp/branch_bound.h"
#include "ilp/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace mca::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rewrites every finite variable upper bound of `p` as an explicit
/// less-equal row, leaving the variable itself unbounded above.
problem explicit_row_formulation(const problem& p) {
  problem out;
  for (std::size_t j = 0; j < p.variable_count(); ++j) {
    const auto& v = p.variable(j);
    if (v.is_integer) {
      out.add_integer_variable(v.cost, v.lower, kInf, v.name);
    } else {
      out.add_variable(v.cost, v.lower, kInf, v.name);
    }
  }
  for (std::size_t i = 0; i < p.constraint_count(); ++i) {
    const auto& c = p.constraint(i);
    out.add_constraint(c.terms, c.rel, c.rhs, c.name);
  }
  for (std::size_t j = 0; j < p.variable_count(); ++j) {
    const auto& v = p.variable(j);
    if (std::isfinite(v.upper)) {
      out.add_constraint({{j, 1.0}}, relation::less_equal, v.upper);
    }
  }
  return out;
}

/// Random box-constrained LP/ILP: mixed-sign costs (so optima land on both
/// bounds), a sprinkle of infinite uppers, and mixed-sense rows.
problem random_boxed(util::rng& rng, bool integer) {
  problem p;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  for (std::size_t j = 0; j < n; ++j) {
    const double cost = rng.uniform(-3.0, 3.0);
    const double lower = rng.uniform(0.0, 2.0);
    const double upper = rng.uniform(0.0, 1.0) < 0.25
                             ? kInf
                             : lower + rng.uniform(1.0, 8.0);
    if (integer) {
      const double lo = std::floor(lower);
      const double hi =
          std::isfinite(upper) ? lo + std::ceil(upper - lower) : kInf;
      p.add_integer_variable(cost, lo, hi);
    } else {
      p.add_variable(cost, lower, upper);
    }
  }
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < rows; ++r) {
    std::vector<linear_term> terms;
    for (std::size_t j = 0; j < n; ++j) {
      const double coeff = rng.uniform(-1.0, 3.0);
      if (std::abs(coeff) > 0.15) terms.push_back({j, coeff});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double pick = rng.uniform(0.0, 1.0);
    const relation rel = pick < 0.5   ? relation::greater_equal
                         : pick < 0.9 ? relation::less_equal
                                      : relation::equal;
    p.add_constraint(std::move(terms), rel, rng.uniform(1.0, 15.0));
  }
  return p;
}

class BoundedVsExplicitRows : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BoundedVsExplicitRows, LpObjectivesAgree) {
  util::rng rng{GetParam()};
  for (int instance = 0; instance < 25; ++instance) {
    const problem boxed = random_boxed(rng, /*integer=*/false);
    const problem rows = explicit_row_formulation(boxed);
    const solution got = solve_lp(boxed);
    const solution want = solve_lp(rows);
    ASSERT_EQ(got.status, want.status) << "instance " << instance;
    if (got.status != solve_status::optimal) continue;
    EXPECT_NEAR(got.objective, want.objective, 1e-6)
        << "instance " << instance;
    EXPECT_TRUE(boxed.is_feasible(got.values, 1e-6))
        << "instance " << instance;
    // extract() promises values clamped inside the box — no -1e-10s.
    for (std::size_t j = 0; j < boxed.variable_count(); ++j) {
      EXPECT_GE(got.values[j], boxed.variable(j).lower)
          << "instance " << instance << " var " << j;
      EXPECT_LE(got.values[j], boxed.variable(j).upper)
          << "instance " << instance << " var " << j;
    }
  }
}

TEST_P(BoundedVsExplicitRows, IlpObjectivesAgree) {
  util::rng rng{GetParam() + 1000};
  for (int instance = 0; instance < 12; ++instance) {
    const problem boxed = random_boxed(rng, /*integer=*/true);
    const problem rows = explicit_row_formulation(boxed);
    const solution got = solve_ilp(boxed);
    const solution want = solve_ilp(rows);
    ASSERT_EQ(got.status, want.status) << "instance " << instance;
    if (got.status != solve_status::optimal) continue;
    EXPECT_NEAR(got.objective, want.objective, 1e-6)
        << "instance " << instance;
    EXPECT_TRUE(boxed.is_feasible(got.values, 1e-6))
        << "instance " << instance;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedVsExplicitRows,
                         ::testing::Range<std::uint64_t>(500, 520));

// Integer variables with *fractional* box bounds: legal per
// problem::is_feasible, and the case where reduced-cost tightening must
// not round its reach down (the variable's tableau-space offsets are not
// integers, so the floored reach would cut off true optima).  The oracle
// is brute force over the integer points inside the boxes.
class FractionalBoundsIlp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FractionalBoundsIlp, MatchesBruteForce) {
  util::rng rng{GetParam()};
  for (int instance = 0; instance < 20; ++instance) {
    problem p;
    const std::size_t n = 3;
    std::vector<int> lo(n), hi(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double lower = rng.uniform(0.1, 1.9);   // deliberately fractional
      const double upper = lower + rng.uniform(2.0, 5.0);
      p.add_integer_variable(rng.uniform(-3.0, 3.0), lower, upper);
      lo[j] = static_cast<int>(std::ceil(lower));
      hi[j] = static_cast<int>(std::floor(upper));
    }
    const int rows = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rows; ++r) {
      std::vector<linear_term> terms;
      for (std::size_t j = 0; j < n; ++j) {
        terms.push_back({j, rng.uniform(0.3, 2.5)});
      }
      // Right-hand side before relation: the order GCC gave these draws
      // when they were two unsequenced arguments, so the problems stay
      // the same.
      const double rhs = rng.uniform(2.0, 12.0);
      const relation rel = rng.uniform(0.0, 1.0) < 0.5
                               ? relation::greater_equal
                               : relation::less_equal;
      p.add_constraint(std::move(terms), rel, rhs);
    }

    double best = std::numeric_limits<double>::infinity();
    std::vector<double> x(n);
    for (int a = lo[0]; a <= hi[0]; ++a) {
      for (int b = lo[1]; b <= hi[1]; ++b) {
        for (int c = lo[2]; c <= hi[2]; ++c) {
          x = {static_cast<double>(a), static_cast<double>(b),
               static_cast<double>(c)};
          if (p.is_feasible(x, 1e-9)) {
            best = std::min(best, p.objective_value(x));
          }
        }
      }
    }

    const solution got = solve_ilp(p);
    if (std::isfinite(best)) {
      ASSERT_EQ(got.status, solve_status::optimal) << "instance " << instance;
      EXPECT_NEAR(got.objective, best, 1e-6) << "instance " << instance;
      EXPECT_TRUE(p.is_feasible(got.values, 1e-6)) << "instance " << instance;
    } else {
      EXPECT_EQ(got.status, solve_status::infeasible)
          << "instance " << instance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FractionalBoundsIlp,
                         ::testing::Range<std::uint64_t>(900, 910));

TEST(BoundedSimplex, OptimumRestsOnUpperBounds) {
  // Maximize x + 2y inside boxes: both variables must finish exactly on
  // their upper bounds, which only the at-upper nonbasic state can
  // represent without bound rows.
  problem p;
  const auto x = p.add_variable(-1.0, 0.0, 4.0);
  const auto y = p.add_variable(-2.0, 0.0, 8.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 100.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.values[x], 4.0, 1e-9);
  EXPECT_NEAR(s.values[y], 8.0, 1e-9);
  EXPECT_NEAR(s.objective, -20.0, 1e-9);
}

TEST(BoundedSimplex, TightBoxesDominateRows) {
  // The binding structure mixes all three: one variable pinned by the
  // shared row, one by its box, one fixed (lower == upper).
  problem p;
  const auto x = p.add_variable(-5.0, 0.0, 3.0);   // box-bound
  const auto y = p.add_variable(-1.0, 0.0, 50.0);  // row-bound
  const auto z = p.add_variable(2.0, 1.5, 1.5);    // fixed
  p.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, relation::less_equal,
                   10.0);
  const auto s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_NEAR(s.values[x], 3.0, 1e-9);
  EXPECT_NEAR(s.values[y], 5.5, 1e-9);
  EXPECT_NEAR(s.values[z], 1.5, 1e-9);
}

}  // namespace
}  // namespace mca::ilp
