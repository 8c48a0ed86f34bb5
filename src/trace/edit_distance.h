// Edit distances over user-assignment sequences.
//
// The predictor (§IV-B) measures how alike two time slots are by the edit
// distance between the user sequences assigned to each acceleration group:
// classic Levenshtein (unit insert/delete/substitute).
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

}  // namespace mca::trace
