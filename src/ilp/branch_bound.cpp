#include "ilp/branch_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "ilp/tableau.h"

namespace mca::ilp {
namespace {

/// One unexplored branch: the parent's optimal tableau plus the single
/// bound tightening that defines the child.  The child re-optimizes with
/// the dual simplex from the parent basis instead of rebuilding.
struct search_node {
  dense_tableau state;
  std::size_t var = 0;
  double bound = 0.0;
  bool raise_lower = false;  // true: lower := bound, false: upper := bound
};

/// Index of the integer variable whose relaxation value is farthest from
/// integral, or nullopt if all are integral within tol.
std::optional<std::size_t> most_fractional(const problem& p,
                                           const std::vector<double>& x,
                                           double tol) {
  std::optional<std::size_t> best;
  double best_frac_distance = tol;
  for (std::size_t j = 0; j < p.variable_count(); ++j) {
    if (!p.variable(j).is_integer) continue;
    const double frac = x[j] - std::floor(x[j]);
    const double distance = std::min(frac, 1.0 - frac);
    if (distance > best_frac_distance) {
      best_frac_distance = distance;
      best = j;
    }
  }
  return best;
}

/// Greedy feasibility-preserving trim of an integral candidate: walk the
/// positive-cost integer variables from most to least expensive and shed
/// the units feasibility does not need.  Turns the blunt ceil incumbent —
/// which rounds every fractional helper up, including ones another
/// column's rounding already covered — into a minimal cover before it
/// becomes the search cutoff.  Row activities are computed once and
/// updated incrementally, so a trim costs O(nnz + shed columns), not a
/// full feasibility scan per shed unit.
void trim_candidate(const problem& p, std::vector<double>& x) {
  std::vector<double> activity(p.constraint_count(), 0.0);
  std::vector<std::vector<std::pair<std::size_t, double>>> rows_of(
      p.variable_count());
  for (std::size_t i = 0; i < p.constraint_count(); ++i) {
    for (const auto& term : p.constraint(i).terms) {
      activity[i] += term.coeff * x[term.var];
      rows_of[term.var].push_back({i, term.coeff});
    }
  }

  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < p.variable_count(); ++j) {
    const auto& v = p.variable(j);
    if (v.is_integer && v.cost > 0.0 && x[j] > v.lower + 0.5) {
      order.push_back(j);
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.variable(a).cost > p.variable(b).cost;
  });

  for (const std::size_t j : order) {
    // Shedding u units moves every row's lhs by -coeff * u; the row's
    // slack bounds u from above (an equality row pins it at zero).
    double max_shed = x[j] - p.variable(j).lower;
    for (const auto& [i, coeff] : rows_of[j]) {
      const auto& c = p.constraint(i);
      switch (c.rel) {
        case relation::greater_equal:
          if (coeff > 0.0) {
            max_shed = std::min(max_shed, (activity[i] - c.rhs) / coeff);
          }
          break;
        case relation::less_equal:
          if (coeff < 0.0) {
            max_shed = std::min(max_shed, (c.rhs - activity[i]) / -coeff);
          }
          break;
        case relation::equal:
          if (std::abs(coeff) > 1e-12) max_shed = 0.0;
          break;
      }
      if (max_shed <= 0.0) break;
    }
    const double shed = std::floor(max_shed + 1e-9);
    if (shed <= 0.0) continue;
    x[j] -= shed;
    for (const auto& [i, coeff] : rows_of[j]) activity[i] -= coeff * shed;
  }
}

}  // namespace

solution solve_ilp(const problem& p, const ilp_options& opts) {
  if (!p.has_integer_variables()) return solve_lp(p, opts.lp);
  solution incumbent;
  incumbent.status = solve_status::infeasible;
  incumbent.objective = std::numeric_limits<double>::infinity();
  if (opts.max_nodes == 0) {
    incumbent.status = solve_status::iteration_limit;
    return incumbent;
  }
  dense_tableau root{p, opts.lp.tolerance};
  const solve_status root_status = root.solve(opts.lp);
  const std::size_t root_pivots = root.pivots();

  std::vector<search_node> stack;
  std::size_t explored = 0;
  bool root_unbounded = false;
  bool budget_exhausted = false;

  // Examines a solved node: prune, accept as incumbent, or branch by
  // pushing two children that inherit this tableau (one by copy, the
  // nearer-to-the-relaxation one by move so it is explored first).
  const auto consider = [&](dense_tableau&& t, solve_status status,
                            bool at_root) {
    if (status == solve_status::unbounded) {
      // An unbounded relaxation at the root means the MIP is unbounded or
      // infeasible; report unbounded (callers here always bound variables).
      if (at_root) root_unbounded = true;
      return;
    }
    if (status == solve_status::iteration_limit) {
      // The LP pivot budget ran out, so this subtree was dropped without a
      // bound proof; the overall result can no longer claim optimality (or
      // infeasibility) — only the incumbent-so-far under iteration_limit.
      budget_exhausted = true;
      return;
    }
    if (status != solve_status::optimal) return;

    solution relaxed;
    t.extract(relaxed);
    if (relaxed.objective >= incumbent.objective - 1e-9) return;  // bound

    if (at_root) {
      // Rounding heuristics on the root relaxation: an early incumbent is
      // what lets reduced-cost tightening collapse the search box before
      // the tree fans out.  Ceiling favors covering (>=) rows; nearest
      // rounding favors balanced ones.  Both are validated before use.
      for (int mode = 0; mode < 2; ++mode) {
        solution candidate;
        candidate.values = relaxed.values;
        for (std::size_t j = 0; j < p.variable_count(); ++j) {
          const auto& v = p.variable(j);
          if (!v.is_integer) continue;
          double value = candidate.values[j];
          value = mode == 0 ? std::ceil(value - 1e-9) : std::round(value);
          candidate.values[j] = std::min(std::max(value, v.lower), v.upper);
        }
        if (!p.is_feasible(candidate.values)) continue;
        trim_candidate(p, candidate.values);
        candidate.objective = p.objective_value(candidate.values);
        if (candidate.objective < incumbent.objective) {
          incumbent = std::move(candidate);
          incumbent.status = solve_status::optimal;
        }
      }
    }
    // Pull in every nonbasic variable's far bound to its reduced-cost
    // reach below the incumbent; children inherit the shrunken box.  The
    // 1e-6 safety margin covers extract()'s tolerance-level clamping of
    // basic values, which can overstate the node bound: the computed reach
    // may then only err loose (weaker fixing), never cut the optimum.
    if (std::isfinite(incumbent.objective)) {
      t.tighten_by_reduced_costs(incumbent.objective + 1e-6 -
                                 relaxed.objective);
    }

    const auto branch_var =
        most_fractional(p, relaxed.values, opts.integrality_tolerance);
    if (!branch_var) {
      // Integral within tolerance: round and accept as incumbent.
      solution candidate = std::move(relaxed);
      for (std::size_t j = 0; j < p.variable_count(); ++j) {
        if (p.variable(j).is_integer) {
          candidate.values[j] = std::round(candidate.values[j]);
        }
      }
      candidate.objective = p.objective_value(candidate.values);
      if (p.is_feasible(candidate.values) &&
          candidate.objective < incumbent.objective) {
        incumbent = std::move(candidate);
        incumbent.status = solve_status::optimal;
      }
      return;
    }

    const std::size_t j = *branch_var;
    const double value = relaxed.values[j];
    const double down_bound = std::floor(value);
    const double up_bound = std::ceil(value);
    const bool down_feasible = down_bound >= t.lower(j) - 1e-12;
    const bool up_feasible = up_bound <= t.upper(j) + 1e-12;
    // Explore the branch nearer the relaxation first (DFS: push it last).
    const bool down_first = value - down_bound < 0.5;
    const bool push_both = down_feasible && up_feasible;
    if (push_both) {
      // The farther branch gets the copy; the nearer one steals the state.
      if (down_first) {
        stack.push_back({t, j, up_bound, true});
        stack.push_back({std::move(t), j, down_bound, false});
      } else {
        stack.push_back({t, j, down_bound, false});
        stack.push_back({std::move(t), j, up_bound, true});
      }
    } else if (down_feasible) {
      stack.push_back({std::move(t), j, down_bound, false});
    } else if (up_feasible) {
      stack.push_back({std::move(t), j, up_bound, true});
    }
  };

  ++explored;
  consider(std::move(root), root_status, /*at_root=*/true);

  while (!stack.empty()) {
    if (explored >= opts.max_nodes) {
      budget_exhausted = true;
      break;
    }
    ++explored;
    search_node node = std::move(stack.back());
    stack.pop_back();

    if (node.raise_lower) {
      node.state.tighten_lower(node.var, node.bound);
    } else {
      node.state.tighten_upper(node.var, node.bound);
    }
    // Bound-aware dual-simplex warm start from the parent basis.  Every
    // tightening — including a variable's first finite upper bound — is an
    // in-place bound-state update, so the full rebuild only triggers when
    // the dual iteration budget blows out.
    const solve_status status = node.state.resolve(opts.lp);
    consider(std::move(node.state), status, /*at_root=*/false);
  }

  incumbent.iterations = explored;
  incumbent.root_pivots = root_pivots;
  if (budget_exhausted) {
    // Return the incumbent (if any) but flag that optimality was not proven.
    incumbent.status = solve_status::iteration_limit;
    return incumbent;
  }
  if (incumbent.status != solve_status::optimal && root_unbounded) {
    incumbent.status = solve_status::unbounded;
  }
  return incumbent;
}

}  // namespace mca::ilp
