#include "ilp/problem.h"

#include <cmath>
#include <stdexcept>

namespace mca::ilp {

std::size_t problem::add_variable(double cost, double lower, double upper,
                                  std::string name) {
  if (lower > upper) throw std::invalid_argument{"add_variable: lower > upper"};
  variables_.push_back({cost, lower, upper, false, std::move(name)});
  return variables_.size() - 1;
}

std::size_t problem::add_integer_variable(double cost, double lower,
                                          double upper, std::string name) {
  const std::size_t i = add_variable(cost, lower, upper, std::move(name));
  variables_[i].is_integer = true;
  return i;
}

void problem::add_constraint(std::vector<linear_term> terms, relation rel,
                             double rhs, std::string name) {
  if (terms.empty()) throw std::invalid_argument{"add_constraint: empty row"};
  for (const auto& t : terms) {
    if (t.var >= variables_.size()) {
      throw std::out_of_range{"add_constraint: unknown variable"};
    }
  }
  constraints_.push_back({std::move(terms), rel, rhs, std::move(name)});
}

bool problem::has_integer_variables() const noexcept {
  for (const auto& v : variables_) {
    if (v.is_integer) return true;
  }
  return false;
}

double problem::objective_value(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t i = 0; i < variables_.size() && i < x.size(); ++i) {
    total += variables_[i].cost * x[i];
  }
  return total;
}

bool problem::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (x[i] < variables_[i].lower - tol) return false;
    if (x[i] > variables_[i].upper + tol) return false;
    if (variables_[i].is_integer &&
        std::abs(x[i] - std::round(x[i])) > tol) {
      return false;
    }
  }
  for (const auto& row : constraints_) {
    double lhs = 0.0;
    for (const auto& t : row.terms) lhs += t.coeff * x[t.var];
    switch (row.rel) {
      case relation::less_equal:
        if (lhs > row.rhs + tol) return false;
        break;
      case relation::greater_equal:
        if (lhs < row.rhs - tol) return false;
        break;
      case relation::equal:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

}  // namespace mca::ilp
