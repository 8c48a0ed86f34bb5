#include "ilp/tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mca::ilp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Candidate-list size for Dantzig pricing: big enough that a refresh scan
/// amortizes over many pivots, small enough to stay in cache.
constexpr std::size_t kCandidateMax = 32;
/// Consecutive degenerate pivots before falling back to Bland's rule.
constexpr std::size_t kBlandAfter = 64;
/// Primal feasibility threshold for the dual simplex / phase-1 check.
constexpr double kFeasTol = 1e-7;

}  // namespace

dense_tableau::dense_tableau(const problem& p, double tol)
    : problem_{&p}, tol_{tol} {
  const std::size_t n = p.variable_count();
  num_structural_ = n;
  shift_.resize(n);
  upper_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& v = p.variable(j);
    if (!std::isfinite(v.lower)) {
      // Free variables are not needed by any caller in this library; keeping
      // the tableau non-negative-only keeps phase 1 simple.
      throw std::invalid_argument{
          "solve_lp: variable lower bound must be finite"};
    }
    shift_[j] = v.lower;
    upper_[j] = v.upper;
  }
}

double dense_tableau::span(std::size_t col) const {
  return col < num_structural_ ? upper_[col] - shift_[col] : kInf;
}

void dense_tableau::build() {
  const problem& p = *problem_;
  const std::size_t n = num_structural_;

  // Only the true constraint rows: upper bounds live in the per-column
  // at-lower/at-upper state, never as rows.
  num_rows_ = p.constraint_count();

  // Shift-adjusted rhs and normalized (rhs >= 0) sense per constraint row.
  std::vector<double> adj_rhs(num_rows_);
  std::vector<relation> adj_rel(num_rows_);
  std::vector<char> flipped_row(num_rows_, 0);
  std::size_t slack = 0;
  std::size_t artificial = 0;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    const auto& c = p.constraint(i);
    double r = c.rhs;
    for (const auto& t : c.terms) r -= t.coeff * shift_[t.var];
    relation rel = c.rel;
    if (r < 0) {
      r = -r;
      flipped_row[i] = 1;
      if (rel == relation::less_equal) {
        rel = relation::greater_equal;
      } else if (rel == relation::greater_equal) {
        rel = relation::less_equal;
      }
    }
    adj_rhs[i] = r;
    adj_rel[i] = rel;
    switch (rel) {
      case relation::less_equal: ++slack; break;
      case relation::greater_equal: ++slack; ++artificial; break;
      case relation::equal: ++artificial; break;
    }
  }

  first_artificial_ = n + slack;
  num_cols_ = first_artificial_ + artificial;
  stride_ = num_cols_;

  tab_.assign(num_rows_ * stride_, 0.0);
  rhs_.assign(num_rows_, 0.0);
  basis_.assign(num_rows_, 0);
  flipped_.assign(num_cols_, 0);  // every variable starts at its lower bound

  std::size_t next_slack = n;
  std::size_t next_artificial = first_artificial_;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    const auto& c = p.constraint(i);
    double* row = row_ptr(i);
    const double sign = flipped_row[i] ? -1.0 : 1.0;
    for (const auto& t : c.terms) row[t.var] += sign * t.coeff;
    rhs_[i] = adj_rhs[i];
    switch (adj_rel[i]) {
      case relation::less_equal:
        row[next_slack] = 1.0;
        basis_[i] = next_slack++;
        break;
      case relation::greater_equal:
        row[next_slack++] = -1.0;
        row[next_artificial] = 1.0;
        basis_[i] = next_artificial++;
        break;
      case relation::equal:
        row[next_artificial] = 1.0;
        basis_[i] = next_artificial++;
        break;
    }
  }

  candidates_.clear();
  price_cursor_ = 0;
  degenerate_streak_ = 0;
  built_ = true;
  needs_rebuild_ = false;
  dual_ready_ = false;
}

void dense_tableau::pivot(std::size_t prow_idx, std::size_t pcol) {
  double* prow = row_ptr(prow_idx);
  const double inv = 1.0 / prow[pcol];
  for (std::size_t j = 0; j < num_cols_; ++j) prow[j] *= inv;
  prow[pcol] = 1.0;
  rhs_[prow_idx] *= inv;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    if (i == prow_idx) continue;
    double* row = row_ptr(i);
    const double factor = row[pcol];
    if (std::abs(factor) < tol_) {
      row[pcol] = 0.0;
      continue;
    }
    for (std::size_t j = 0; j < num_cols_; ++j) row[j] -= factor * prow[j];
    row[pcol] = 0.0;
    rhs_[i] -= factor * rhs_[prow_idx];
  }
  basis_[prow_idx] = pcol;
}

void dense_tableau::flip_nonbasic(std::size_t col) {
  // Substituting z' = u - z negates the column and its reduced cost and
  // shifts every row's rhs by the column times the span.  Basic reduced
  // costs stay untouched, so dual feasibility survives the flip.
  const double u = span(col);
  for (std::size_t i = 0; i < num_rows_; ++i) {
    double& a = tab_[i * stride_ + col];
    if (a != 0.0) {
      rhs_[i] -= a * u;
      a = -a;
    }
  }
  cost_[col] = -cost_[col];
  flipped_[col] ^= 1;
}

void dense_tableau::flip_basic_row(std::size_t row) {
  // Row equation  z_b + sum a_j z_j = rhs  becomes, with w = u - z_b,
  //   w - sum a_j z_j = u - rhs;  the basic column stays the unit vector
  // and every reduced cost is unchanged (c_b and the row negate together).
  const std::size_t b = basis_[row];
  double* r = row_ptr(row);
  for (std::size_t j = 0; j < num_cols_; ++j) r[j] = -r[j];
  r[b] = 1.0;
  rhs_[row] = span(b) - rhs_[row];
  flipped_[b] ^= 1;
}

void dense_tableau::price_out_basis() {
  // Reduce the cost row so basic columns have zero reduced cost.
  for (std::size_t i = 0; i < num_rows_; ++i) {
    const double factor = cost_[basis_[i]];
    if (std::abs(factor) < tol_) continue;
    const double* row = row_ptr(i);
    for (std::size_t j = 0; j < num_cols_; ++j) cost_[j] -= factor * row[j];
  }
}

std::size_t dense_tableau::choose_entering(std::size_t limit) {
  if (degenerate_streak_ > kBlandAfter) {
    // Bland's rule: lowest-index improving column (with the lowest-index
    // tie-break in the ratio test this guarantees termination).
    for (std::size_t j = 0; j < limit; ++j) {
      if (cost_[j] < -tol_) return j;
    }
    return npos;
  }
  for (int pass = 0; pass < 2; ++pass) {
    // Dantzig over the candidate list, pruning stale entries in place.
    std::size_t best = npos;
    double best_cost = -tol_;
    std::size_t keep = 0;
    for (std::size_t idx = 0; idx < candidates_.size(); ++idx) {
      const std::size_t j = candidates_[idx];
      if (j >= limit || cost_[j] >= -tol_) continue;
      candidates_[keep++] = j;
      if (cost_[j] < best_cost) {
        best_cost = cost_[j];
        best = j;
      }
    }
    candidates_.resize(keep);
    if (best != npos) return best;
    if (pass == 1 || limit == 0) break;
    // Refill from a rotating cursor so no column region starves.
    if (price_cursor_ >= limit) price_cursor_ = 0;
    std::size_t j = price_cursor_;
    for (std::size_t scanned = 0; scanned < limit; ++scanned) {
      if (cost_[j] < -tol_) {
        candidates_.push_back(j);
        if (candidates_.size() >= kCandidateMax) {
          price_cursor_ = j + 1 == limit ? 0 : j + 1;
          break;
        }
      }
      ++j;
      if (j == limit) j = 0;
    }
    if (candidates_.empty()) break;
  }
  return npos;
}

solve_status dense_tableau::primal(std::size_t limit, std::size_t max_iters,
                                   std::size_t& used) {
  while (used < max_iters) {
    const std::size_t entering = choose_entering(limit);
    if (entering == npos) return solve_status::optimal;

    // Bounded ratio test.  Three ways the step can stop: a basic variable
    // drops to zero (classic), a basic variable climbs to its finite upper
    // bound (flip its row, then pivot), or the entering variable crosses
    // its own span first (bound flip, no pivot).  Ties between rows break
    // toward the lowest basis index (Bland-compatible); a tie with the
    // entering span prefers the cheaper bound flip.
    double best_step = span(entering);
    std::size_t leave_row = npos;
    bool leave_at_upper = false;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      const double a = at(i, entering);
      double step;
      bool at_up;
      if (a > tol_) {
        step = rhs_[i] / a;
        at_up = false;
      } else if (a < -tol_) {
        const double u = span(basis_[i]);
        if (!std::isfinite(u)) continue;
        step = (u - rhs_[i]) / -a;
        at_up = true;
      } else {
        continue;
      }
      if (step < 0.0) step = 0.0;  // tolerance-level rhs overshoot
      if (step < best_step - tol_ ||
          (step < best_step + tol_ && leave_row != npos &&
           basis_[i] < basis_[leave_row])) {
        best_step = step;
        leave_row = i;
        leave_at_upper = at_up;
      }
    }

    if (leave_row == npos) {
      if (!std::isfinite(best_step)) return solve_status::unbounded;
      // The entering variable's own bound binds first: flip it across its
      // box.  Strictly improving whenever the span is positive, so flips
      // cannot cycle on their own.
      if (best_step <= tol_) {
        ++degenerate_streak_;
      } else {
        degenerate_streak_ = 0;
      }
      flip_nonbasic(entering);
      ++used;
      ++pivots_;
      continue;
    }

    if (best_step <= tol_) {
      ++degenerate_streak_;
    } else {
      degenerate_streak_ = 0;
    }
    if (leave_at_upper) flip_basic_row(leave_row);
    const double factor = cost_[entering];
    pivot(leave_row, entering);
    const double* prow = row_ptr(leave_row);
    for (std::size_t j = 0; j < num_cols_; ++j) cost_[j] -= factor * prow[j];
    ++used;
    ++pivots_;
  }
  return solve_status::iteration_limit;
}

solve_status dense_tableau::solve(const simplex_options& opts) {
  build();
  std::size_t used = 0;

  // Phase 1: minimize the sum of artificial variables.
  if (first_artificial_ < num_cols_) {
    cost_.assign(num_cols_, 0.0);
    for (std::size_t j = first_artificial_; j < num_cols_; ++j) cost_[j] = 1.0;
    price_out_basis();
    const solve_status s = primal(num_cols_, opts.max_iterations, used);
    if (s == solve_status::unbounded) {
      // Phase-1 objective is bounded below by 0; unboundedness is a bug.
      return solve_status::iteration_limit;
    }
    if (s == solve_status::iteration_limit || used >= opts.max_iterations) {
      return solve_status::iteration_limit;
    }
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      if (basis_[i] >= first_artificial_) infeasibility += rhs_[i];
    }
    if (infeasibility > kFeasTol) return solve_status::infeasible;
    // Drive any artificial still in the basis (at zero level) out.
    for (std::size_t i = 0; i < num_rows_; ++i) {
      if (basis_[i] < first_artificial_) continue;
      const double* row = row_ptr(i);
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(row[j]) > tol_) {
          pivot(i, j);
          break;
        }
      }
      // If the whole row is zero over real columns the row is redundant;
      // the artificial stays basic at level zero, which is harmless.
    }
  }

  // Phase 2: original objective.  Artificial columns are simply never
  // eligible to enter (the pricing limit stops at first_artificial_), so no
  // infinite-cost sentinel is needed.  Columns phase 1 left at their upper
  // bound are stored flipped, so their cost enters negated.
  cost_.assign(num_cols_, 0.0);
  for (std::size_t j = 0; j < num_structural_; ++j) {
    const double c = problem_->variable(j).cost;
    cost_[j] = flipped_[j] ? -c : c;
  }
  price_out_basis();
  candidates_.clear();
  degenerate_streak_ = 0;
  const solve_status s = primal(first_artificial_, opts.max_iterations, used);
  if (s == solve_status::optimal && used < opts.max_iterations) {
    dual_ready_ = true;
    return solve_status::optimal;
  }
  if (s == solve_status::unbounded) return solve_status::unbounded;
  return solve_status::iteration_limit;
}

void dense_tableau::tighten_lower(std::size_t var, double lo) {
  if (lo <= shift_[var]) return;
  const double delta = lo - shift_[var];
  shift_[var] = lo;
  if (!built_ || needs_rebuild_) {
    needs_rebuild_ = true;
    return;
  }
  // A flipped column measures distance from the upper bound, which a lower
  // tightening leaves untouched (an at-upper nonbasic stays put; a basic
  // one keeps the same upper - x value) — only the span bookkeeping above
  // changes.  An unflipped column is the classic substitution shift: the
  // original rhs moves by -delta * A_j, which in the current basis is
  // -delta times tableau column j (the unit vector when var is basic).
  if (flipped_[var]) return;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    rhs_[i] -= delta * at(i, var);
  }
}

void dense_tableau::tighten_upper(std::size_t var, double hi) {
  if (hi >= upper_[var]) return;
  const double delta = upper_[var] - hi;
  upper_[var] = hi;
  if (!built_ || needs_rebuild_) {
    needs_rebuild_ = true;
    return;
  }
  // Mirror image of tighten_lower: only a flipped column (distance from
  // upper) feels the move.  A variable whose upper bound was infinite at
  // build time is necessarily unflipped, so its first finite bound is pure
  // span bookkeeping — no rebuild, and any resulting violation of the new
  // span is an ordinary dual-simplex repair.
  if (!flipped_[var]) return;
  for (std::size_t i = 0; i < num_rows_; ++i) {
    rhs_[i] -= delta * at(i, var);
  }
}

void dense_tableau::tighten_by_reduced_costs(double slack) {
  if (!built_ || needs_rebuild_ || !dual_ready_ || slack < 0.0) return;
  for (std::size_t j = 0; j < num_structural_; ++j) {
    const double d = cost_[j];
    if (d <= tol_) continue;  // basic (== 0) or no usable reduced cost
    const double u = span(j);
    double reach = slack / d;
    if (problem_->variable(j).is_integer) {
      // z moves in unit steps only when the bound it is anchored at is
      // itself integral (x integer, anchor fractional => z fractional), so
      // the stronger floored reach applies just then; otherwise keep the
      // continuous reach, which is always valid.
      const double anchor = flipped_[j] ? upper_[j] : shift_[j];
      if (std::abs(anchor - std::round(anchor)) <= 1e-9) {
        reach = std::floor(reach + 1e-9);
      }
    }
    if (reach >= u - tol_) continue;
    // The variable sits at z = 0 (it is nonbasic: positive reduced cost at
    // an optimum implies nonbasic), so pulling the far bound to within
    // `reach` never moves the current vertex and needs no rhs update.
    if (flipped_[j]) {
      tighten_lower(j, upper_[j] - reach);
    } else {
      tighten_upper(j, shift_[j] + reach);
    }
  }
}

solve_status dense_tableau::dual(const simplex_options& opts) {
  std::size_t used = 0;
  while (used < opts.max_iterations) {
    // Most-violated basic variable: below zero, or above a finite upper
    // bound (re-expressed as a below-zero violation by flipping the row
    // before the ratio test).
    std::size_t leaving = npos;
    double worst = kFeasTol;
    bool above_upper = false;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      double violation = -rhs_[i];
      bool up = false;
      const double u = span(basis_[i]);
      if (std::isfinite(u) && rhs_[i] - u > violation) {
        violation = rhs_[i] - u;
        up = true;
      }
      if (violation > worst) {
        worst = violation;
        leaving = i;
        above_upper = up;
      }
    }
    if (leaving == npos) return solve_status::optimal;  // primal feasible again
    if (above_upper) flip_basic_row(leaving);  // now rhs_[leaving] < 0

    const double* lrow = row_ptr(leaving);
    std::size_t entering = npos;
    double best_ratio = kInf;
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      const double a = lrow[j];
      if (a >= -tol_) continue;
      const double ratio = std::max(cost_[j], 0.0) / -a;
      if (ratio < best_ratio - tol_ ||
          (ratio < best_ratio + tol_ && (entering == npos || j < entering))) {
        best_ratio = ratio;
        entering = j;
      }
    }
    if (entering == npos) return solve_status::infeasible;  // dual ray

    const double factor = cost_[entering];
    pivot(leaving, entering);
    const double* prow = row_ptr(leaving);
    for (std::size_t j = 0; j < num_cols_; ++j) cost_[j] -= factor * prow[j];
    ++used;
    ++pivots_;
  }
  return solve_status::iteration_limit;
}

solve_status dense_tableau::resolve(const simplex_options& opts) {
  if (needs_rebuild_ || !dual_ready_) return solve(opts);
  const solve_status s = dual(opts);
  if (s == solve_status::iteration_limit) {
    // Dual got stuck (degenerate cycling); a fresh primal solve from the
    // recorded bounds is always a valid fallback.
    return solve(opts);
  }
  return s;
}

void dense_tableau::extract(solution& out) const {
  // First pass: tableau-space value z_j (distance from the bound the
  // column is anchored at), clamped into [0, span].
  out.values.assign(num_structural_, 0.0);
  for (std::size_t i = 0; i < num_rows_; ++i) {
    if (basis_[i] < num_structural_) out.values[basis_[i]] = rhs_[i];
  }
  for (std::size_t j = 0; j < num_structural_; ++j) {
    const double u = upper_[j] - shift_[j];
    double z = out.values[j];
    if (z < 0.0) z = 0.0;
    if (z > u) z = u;
    out.values[j] = shift_[j] + (flipped_[j] ? u - z : z);
  }
  out.objective = problem_->objective_value(out.values);
  out.status = solve_status::optimal;
}

}  // namespace mca::ilp
