// Money vocabulary.
//
// Every on-demand price in the catalog is a whole number of $0.0001 per
// hour, and instances are billed in whole started hours, so every price,
// plan total and bill is an exact integer count of $0.0001.  Sums of it
// do not round, so they do not depend on the order they are taken in,
// and equal costs compare equal.  Dollars appear only where a number is
// printed or averaged.
#pragma once

#include <cstdint>

namespace mca::util {

/// An amount in units of $0.0001 (a price, per hour, or a bill).
using money = std::int64_t;

/// Money units in one US dollar.
inline constexpr money k_money_per_usd = 10'000;

/// The amount in dollars: the double nearest to it, so a catalog price
/// reads back as its decimal literal (t2.nano's 63 units as 0.0063).
constexpr double to_usd(money amount) noexcept {
  return static_cast<double>(amount) / static_cast<double>(k_money_per_usd);
}

}  // namespace mca::util
