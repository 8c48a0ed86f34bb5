// Branch-and-bound integer linear programming on top of the simplex.
//
// Depth-first search over LP relaxations: branch on the most fractional
// integer variable, prune by bound against the incumbent.  Exact for the
// small allocation models this library produces (the paper's cloud cap CC
// is 20 instances over a handful of types).
#pragma once

#include "ilp/problem.h"
#include "ilp/simplex.h"
#include "ilp/tableau.h"

namespace mca::ilp {

/// Branch & bound tuning knobs.
struct ilp_options {
  /// Cap on explored nodes; exceeding it returns `iteration_limit` (with
  /// the incumbent, if any, in `solution::values`).
  std::size_t max_nodes = 100'000;
  /// A relaxation value is considered integral within this tolerance.
  double integrality_tolerance = 1e-6;
  simplex_options lp;
};

/// Solves the mixed-integer program `p` to optimality.
///
/// Returns `optimal` with the best integral assignment, `infeasible` when
/// no integral point exists, `unbounded` if the relaxation is unbounded,
/// or `iteration_limit` when the node budget ran out (best incumbent
/// returned when one was found).  `solution::iterations` counts the nodes
/// explored and `solution::root_pivots` the root relaxation's pivots.
solution solve_ilp(const problem& p, const ilp_options& opts = {});

}  // namespace mca::ilp
