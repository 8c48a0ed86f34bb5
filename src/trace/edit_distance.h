// Edit distances over user-assignment sequences.
//
// The predictor (§IV-B) measures how alike two time slots are by the edit
// distance between the user sequences assigned to each acceleration group.
// Provided here: classic Levenshtein (unit insert/delete/substitute),
// post-normalized distance, and the exact Marzal–Vidal normalized edit
// distance (the paper's reference [33]) via Dinkelbach's fractional
// programming iteration.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/ids.h"

namespace mca::trace {

/// Unit-cost Levenshtein distance between two sequences.  When both are
/// strictly increasing (every slot user list is) it runs a sparse DP over
/// their K common elements in O(n + m + K log(n + m)): between two matches
/// an alignment keeps, with gaps x and y, the cheapest edit is max(x, y),
/// so the distance is the cheapest chain of matches.  Any other input runs
/// the O(n·m) two-row DP.
std::size_t edit_distance(std::span<const user_id> a,
                          std::span<const user_id> b);

/// Levenshtein divided by max(|a|, |b|); 0 for two empty sequences.
/// The cheap normalization commonly substituted for Marzal–Vidal.
double post_normalized_edit_distance(std::span<const user_id> a,
                                     std::span<const user_id> b);

/// Exact Marzal–Vidal normalized edit distance: the minimum over edit
/// paths P of weight(P)/length(P), computed by Dinkelbach iteration over
/// a parametric DP.  Returns 0 for two empty sequences; value is in [0,1]
/// for unit costs.
double normalized_edit_distance(std::span<const user_id> a,
                                std::span<const user_id> b);

}  // namespace mca::trace
