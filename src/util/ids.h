// Shared identifier vocabulary.
//
// Plain integer aliases (not strong types): ids cross module boundaries
// constantly and are never mixed arithmetically, so the alias keeps call
// sites readable without wrapper friction.
#pragma once

#include <cstdint>

namespace mca {

/// A mobile user/device in the workload.
using user_id = std::uint32_t;

/// One offloading request.
using request_id = std::uint64_t;

/// Acceleration group index (0 = demoted anomaly group, 1 = slowest
/// regular level; matches the paper's numbering).
using group_id = std::uint32_t;

}  // namespace mca
