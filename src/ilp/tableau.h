// Dense bounded-variable simplex tableau with warm-start support.
//
// One contiguous row-major buffer (rows x stride) instead of a
// vector-of-vectors: pivots stream through memory linearly and the whole
// state is copyable with a few memcpys, which is what lets branch & bound
// snapshot a node cheaply.  Entering-variable selection is Dantzig pricing
// over a small candidate list refreshed from a rotating cursor, with a
// Bland-rule fallback when a degenerate streak suggests cycling.
//
// Variable upper bounds are implicit (bounded-variable simplex), not rows:
// the tableau holds only the problem's true constraints, and every column
// carries an at-lower/at-upper nonbasic state instead of a bound row plus
// slack.  An at-upper column is stored sign-flipped so its tableau-space
// value is zero like any other nonbasic, which keeps the pivot arithmetic
// standard; the primal ratio test gains two extra exits — a basic variable
// reaching its finite upper bound (the leaving row is flipped into its
// distance-from-upper form, then pivoted normally) and the entering
// variable traversing its whole span (a pivot-free bound flip) — and the
// dual simplex treats an above-upper basic value by flipping it into an
// ordinary below-zero violation.  For the allocator's models, where every
// column is capped by the account limit, this halves the tableau: G·C
// bound rows and their slack columns simply never exist.
//
// Child nodes of branch & bound do not rebuild: `tighten_lower` /
// `tighten_upper` adjust the right-hand side in place (an O(rows) column
// sweep, or a pure bookkeeping update when the tightened side is not the
// one the variable currently sits at) and `resolve` re-optimizes with the
// bound-aware dual simplex from the parent basis.  A variable gaining its
// first finite upper bound is just a span update — unlike the explicit-row
// formulation there is no structural change, so the full primal rebuild
// remains only as the fallback for a dual iteration-budget blowout.
#pragma once

#include <cstddef>
#include <vector>

#include "ilp/problem.h"

namespace mca::ilp {

/// Simplex tuning knobs.
struct simplex_options {
  /// Hard cap on pivots across both phases.
  std::size_t max_iterations = 10'000;
  /// Feasibility / optimality tolerance.
  double tolerance = 1e-9;
};

class dense_tableau {
 public:
  /// Captures `p`'s bounds; does not build yet (solve() does).  `p` must
  /// outlive the tableau (and any copies of it).
  /// Throws std::invalid_argument on a variable with infinite lower bound.
  dense_tableau(const problem& p, double tol);

  /// Full two-phase primal solve from scratch (rebuilds the tableau from
  /// the problem plus the currently recorded bounds).
  solve_status solve(const simplex_options& opts);

  /// Re-optimizes after tighten_* calls: dual simplex from the current
  /// basis when possible, otherwise a fresh solve().  Must follow a
  /// solve()/resolve() that returned `optimal`.
  solve_status resolve(const simplex_options& opts);

  /// Raises the lower bound of `var` (no-op if `lo` is not tighter).
  void tighten_lower(std::size_t var, double lo);
  /// Lowers the upper bound of `var` (no-op if `hi` is not tighter).
  void tighten_upper(std::size_t var, double hi);

  /// Reduced-cost bound tightening against an incumbent: after an optimal
  /// (re)solve whose objective sits `slack` below the cutoff, a nonbasic
  /// variable with reduced cost d can move at most slack / d from the
  /// bound it sits at before the objective crosses the cutoff, so its far
  /// bound is pulled in to that reach (rounded down for integer
  /// variables).  The current vertex stays put and the rhs is untouched —
  /// in the bounded-variable representation this is free — but the search
  /// box handed to child nodes shrinks, often to a single point.
  void tighten_by_reduced_costs(double slack);

  double lower(std::size_t var) const { return shift_[var]; }
  double upper(std::size_t var) const { return upper_[var]; }

  /// Writes the assignment and objective of the last optimal solve.  The
  /// emitted values are clamped to the variable boxes, so downstream
  /// consumers never see a tolerance-level bound violation (e.g. -1e-10).
  void extract(solution& out) const;

  /// Pivots performed by this tableau (all solves, both phases; pivot-free
  /// bound flips count too — they are iterations of the same loop).
  std::size_t pivots() const noexcept { return pivots_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  double& at(std::size_t row, std::size_t col) {
    return tab_[row * stride_ + col];
  }
  double* row_ptr(std::size_t row) { return tab_.data() + row * stride_; }

  /// Width of column `col`'s box in tableau space: upper - lower for a
  /// structural variable (possibly infinite), infinite for slacks and
  /// artificials.
  double span(std::size_t col) const;

  void build();
  void pivot(std::size_t row, std::size_t col);
  /// Moves nonbasic `col` to its other bound: rhs sweep, column and
  /// reduced-cost negation, flag toggle.  Self-inverse.
  void flip_nonbasic(std::size_t col);
  /// Re-expresses the basic variable of `row` as its distance from its
  /// (finite) upper bound, so "leaves at upper" / "violates upper" reduce
  /// to the ordinary at-zero cases.
  void flip_basic_row(std::size_t row);
  void price_out_basis();
  std::size_t choose_entering(std::size_t limit);
  solve_status primal(std::size_t limit, std::size_t max_iters,
                      std::size_t& used);
  solve_status dual(const simplex_options& opts);

  const problem* problem_ = nullptr;
  double tol_ = 1e-9;

  // Current variable boxes (start as the problem's, tightened by branch &
  // bound).  shift_ doubles as the lower bound and the substitution shift.
  std::vector<double> shift_;
  std::vector<double> upper_;

  // Tableau proper.
  std::size_t num_rows_ = 0;
  std::size_t num_structural_ = 0;
  std::size_t first_artificial_ = 0;
  std::size_t num_cols_ = 0;
  std::size_t stride_ = 0;
  std::vector<double> tab_;   // num_rows_ x stride_, row-major
  std::vector<double> rhs_;
  std::vector<double> cost_;  // reduced-cost row of the active objective
  std::vector<std::size_t> basis_;
  std::vector<char> flipped_;  // column stored as distance-from-upper?

  // Pricing state.
  std::vector<std::size_t> candidates_;
  std::size_t price_cursor_ = 0;
  std::size_t degenerate_streak_ = 0;

  bool built_ = false;
  bool needs_rebuild_ = true;
  bool dual_ready_ = false;  // phase-2 cost row valid for dual warm starts
  std::size_t pivots_ = 0;
};

}  // namespace mca::ilp
