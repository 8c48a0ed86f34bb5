// Linear / integer-linear program model.
//
// The resource allocator (§IV-C of the paper) builds its cost-minimization
// model through this interface; `solve_lp` (simplex.h) and `solve_ilp`
// (branch_bound.h) consume it.  Minimization form throughout:
//
//   min  c·x   s.t.  a_i·x {<=,>=,=} b_i ,  lo <= x <= hi ,
//
// with any subset of variables restricted to integers.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace mca::ilp {

/// Constraint sense.
enum class relation { less_equal, greater_equal, equal };

/// One (variable, coefficient) entry of a constraint row.
struct linear_term {
  std::size_t var = 0;
  double coeff = 0.0;
};

/// A linear constraint  sum(terms) <relation> rhs.
struct constraint_def {
  std::vector<linear_term> terms;
  relation rel = relation::less_equal;
  double rhs = 0.0;
  std::string name;
};

/// A decision variable with box bounds and optional integrality.
struct variable_def {
  double cost = 0.0;
  double lower = 0.0;
  double upper = std::numeric_limits<double>::infinity();
  bool is_integer = false;
  std::string name;
};

/// Mutable model under construction.  Indices returned by `add_variable`
/// are stable and used in `linear_term::var`.
class problem {
 public:
  /// Adds a continuous variable; returns its index.
  /// Throws std::invalid_argument if lower > upper.
  std::size_t add_variable(double cost, double lower = 0.0,
                           double upper = std::numeric_limits<double>::infinity(),
                           std::string name = {});

  /// Adds an integer variable; returns its index.
  std::size_t add_integer_variable(
      double cost, double lower = 0.0,
      double upper = std::numeric_limits<double>::infinity(),
      std::string name = {});

  /// Adds a constraint row.  Throws std::out_of_range if a term references
  /// an unknown variable, std::invalid_argument on an empty row.
  void add_constraint(std::vector<linear_term> terms, relation rel, double rhs,
                      std::string name = {});

  std::size_t variable_count() const noexcept { return variables_.size(); }
  std::size_t constraint_count() const noexcept { return constraints_.size(); }
  const variable_def& variable(std::size_t i) const { return variables_.at(i); }
  const constraint_def& constraint(std::size_t i) const {
    return constraints_.at(i);
  }

  /// True if any variable is marked integral.
  bool has_integer_variables() const noexcept;

  /// Objective value of a given assignment (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Checks an assignment against all rows and bounds within `tol`.
  bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<variable_def> variables_;
  std::vector<constraint_def> constraints_;
};

/// Terminal state of a solve.
enum class solve_status {
  optimal,
  infeasible,
  unbounded,
  iteration_limit,
};

/// Result of an LP or ILP solve.
struct solution {
  solve_status status = solve_status::infeasible;
  double objective = 0.0;
  std::vector<double> values;
  /// Solver effort: simplex pivots for solve_lp, branch-and-bound nodes
  /// explored for solve_ilp.
  std::size_t iterations = 0;
  /// solve_ilp only: simplex pivots the root relaxation took.
  std::size_t root_pivots = 0;
};

}  // namespace mca::ilp
