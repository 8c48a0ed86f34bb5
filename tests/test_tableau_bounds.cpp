// Overflow-adjacent bound arithmetic for the dense simplex tableau: rhs
// values and variable boxes near the top of the double range flow through
// build, solve and branch-style bound tightening without producing
// infinities, NaNs, or undefined float behavior.  These magnitudes never
// occur in the allocator's own models (work units are bounded), so this
// is pure edge coverage for the ASan+UBSan CI leg; expectations are
// deliberately loose — finite values, sane statuses — rather than exact
// optima.
#include "ilp/tableau.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/problem.h"
#include "ilp/simplex.h"
#include "util/rng.h"

namespace mca::ilp {
namespace {

constexpr double kHuge = 1.0e300;

bool all_finite(const std::vector<double>& xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

TEST(TableauBounds, HugeRhsSolvesFinite) {
  // min x0 + x1  s.t.  x0 + x1 >= 1e300 — optimum rides the huge rhs.
  problem p;
  const auto x0 = p.add_variable(1.0);
  const auto x1 = p.add_variable(1.0);
  p.add_constraint({{x0, 1.0}, {x1, 1.0}}, relation::greater_equal, kHuge);
  const solution s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_TRUE(all_finite(s.values));
  EXPECT_TRUE(std::isfinite(s.objective));
  EXPECT_NEAR(s.objective, kHuge, 1.0e-9 * kHuge);
}

TEST(TableauBounds, HugeUpperBoundBoxStaysFinite) {
  // A finite-but-enormous upper bound is materialized as a bound row; its
  // slack arithmetic must not overflow into inf during the build.
  problem p;
  const auto x0 = p.add_variable(-1.0, 0.0, kHuge);  // min -x0: push to upper
  p.add_constraint({{x0, 1.0}}, relation::greater_equal, 0.0);
  const solution s = solve_lp(p);
  ASSERT_EQ(s.status, solve_status::optimal);
  EXPECT_TRUE(std::isfinite(s.objective));
  EXPECT_NEAR(s.values.at(x0), kHuge, 1.0e-9 * kHuge);
}

TEST(TableauBounds, TightenToHugeBoundsThenResolve) {
  // Branch-style in-place bound moves with overflow-adjacent values: lift
  // the lower bound to a huge value (forcing the optimum up), then pull it
  // back down via a fresh solve.
  problem p;
  const auto x0 = p.add_variable(1.0, 0.0, kHuge);
  const auto x1 = p.add_variable(4.0, 0.0, kHuge);
  p.add_constraint({{x0, 1.0}, {x1, 1.0}}, relation::greater_equal, 2.0);
  dense_tableau t{p, 1.0e-9};
  ASSERT_EQ(t.solve({}), solve_status::optimal);

  t.tighten_lower(x1, 1.0e299);
  ASSERT_EQ(t.resolve({}), solve_status::optimal);
  solution s;
  t.extract(s);
  EXPECT_TRUE(all_finite(s.values));
  EXPECT_GE(s.values.at(x1), 1.0e299 * (1.0 - 1.0e-9));

  t.tighten_upper(x0, 1.0);
  ASSERT_EQ(t.resolve({}), solve_status::optimal);
  t.extract(s);
  EXPECT_TRUE(all_finite(s.values));
  EXPECT_LE(s.values.at(x0), 1.0 + 1.0e-6);
}

TEST(TableauBounds, HugeConstraintVsBoundConflictIsInfeasible) {
  // A bound tightened into conflict with a huge-rhs row must come back
  // `infeasible`, not as an overflow artifact.  (Empty *boxes* — lower >
  // upper on one variable — are out of contract: branch & bound guards
  // against creating them and problem::add_variable throws on them, so
  // the conflict the tableau must detect is always row-vs-bound.)
  problem p;
  const auto x0 = p.add_variable(1.0, 0.0, kHuge);
  p.add_constraint({{x0, 1.0}}, relation::greater_equal, kHuge);
  dense_tableau t{p, 1.0e-9};
  ASSERT_EQ(t.solve({}), solve_status::optimal);
  t.tighten_upper(x0, 1.0);  // conflicts with x0 >= 1e300
  EXPECT_EQ(t.resolve({}), solve_status::infeasible);
}

TEST(TableauBounds, RandomizedHugeScaleProblemsStayFinite) {
  // Fuzz small LPs whose coefficients, bounds, and rhs mix ordinary and
  // overflow-adjacent magnitudes; every terminal status is acceptable, but
  // an `optimal` solve must hand back finite numbers.
  util::rng gen{0xb00575bad5eedULL};
  for (int trial = 0; trial < 100; ++trial) {
    problem p;
    const auto vars = static_cast<std::size_t>(gen.uniform_int(1, 4));
    for (std::size_t v = 0; v < vars; ++v) {
      const double cost = gen.uniform(-3.0, 3.0);
      const double upper = gen.bernoulli(0.3) ? gen.uniform(1.0, 1.0e299)
                                              : gen.uniform(1.0, 100.0);
      p.add_variable(cost, 0.0, upper);
    }
    const auto rows = static_cast<std::size_t>(gen.uniform_int(1, 3));
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<linear_term> terms;
      for (std::size_t v = 0; v < vars; ++v) {
        terms.push_back({v, gen.uniform(0.1, 4.0)});
      }
      const double rhs = gen.bernoulli(0.25) ? gen.uniform(1.0, 1.0e290)
                                             : gen.uniform(0.0, 50.0);
      p.add_constraint(std::move(terms),
                       gen.bernoulli(0.5) ? relation::less_equal
                                          : relation::greater_equal,
                       rhs);
    }
    const solution s = solve_lp(p);
    if (s.status == solve_status::optimal) {
      EXPECT_TRUE(all_finite(s.values)) << "trial " << trial;
      EXPECT_TRUE(std::isfinite(s.objective)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace mca::ilp
