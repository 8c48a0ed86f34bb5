#include "trace/edit_distance.h"

#include <algorithm>
#include <cstddef>
#include <limits>

namespace mca::trace {

namespace {

/// Classic two-row DP: the general-input path.
std::size_t edit_distance_dp(std::span<const user_id> a,
                             std::span<const user_id> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::size_t> prev(m + 1);
  std::vector<std::size_t> curr(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t substitution =
          prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

bool strictly_increasing(std::span<const user_id> s) noexcept {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i] <= s[i - 1]) return false;
  }
  return true;
}

/// edit_distance() on two strictly increasing sequences: a sparse DP over
/// their common elements (Eppstein, Galil, Giancarlo and Italiano, JACM
/// 1992).  f(q), the cheapest edit up to match q, is the minimum over
/// earlier points p of f(p) + max(di, dj) - 1.  With s = i + j and
/// e = i - j, 2 max(di, dj) = ds + |de|, so g = 2f - s of q is 2 less than
/// the minimum of g_p + |e_q - e_p|: two Fenwick prefix minima over the
/// diagonal e, one of g - e for e_p <= e_q, one of g + e for e_p >= e_q.
/// Coordinates are 1-based with virtual points at (0, 0) and (n + 1, m + 1).
std::size_t edit_distance_sorted(std::span<const user_id> a,
                                 std::span<const user_id> b) {
  const auto n = static_cast<std::ptrdiff_t>(a.size());
  const auto m = static_cast<std::ptrdiff_t>(b.size());
  const std::ptrdiff_t size = n + m + 1;
  constexpr auto kInf = std::numeric_limits<std::ptrdiff_t>::max() / 2;
  // below[e + m]: g - e of points on diagonal e; above[n - e]: g + e.
  static thread_local std::vector<std::ptrdiff_t> below;
  static thread_local std::vector<std::ptrdiff_t> above;
  below.assign(static_cast<std::size_t>(size), kInf);
  above.assign(static_cast<std::size_t>(size), kInf);
  const auto insert = [size](std::vector<std::ptrdiff_t>& tree,
                             std::ptrdiff_t pos, std::ptrdiff_t value) {
    for (std::ptrdiff_t k = pos + 1; k <= size; k += k & -k) {
      auto& cell = tree[static_cast<std::size_t>(k - 1)];
      cell = std::min(cell, value);
    }
  };
  const auto prefix_min = [](const std::vector<std::ptrdiff_t>& tree,
                             std::ptrdiff_t pos) {
    std::ptrdiff_t best = kInf;
    for (std::ptrdiff_t k = pos + 1; k > 0; k -= k & -k) {
      best = std::min(best, tree[static_cast<std::size_t>(k - 1)]);
    }
    return best;
  };
  // min over inserted points p of g_p + |e - e_p|.
  const auto nearest = [&](std::ptrdiff_t e) {
    return std::min(prefix_min(below, e + m) + e,
                    prefix_min(above, n - e) - e);
  };
  const auto add = [&](std::ptrdiff_t e, std::ptrdiff_t g) {
    insert(below, e + m, g - e);
    insert(above, n - e, g + e);
  };
  add(0, 0);
  // Merge order is chain order: each match follows every earlier one in
  // both sequences.
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      const auto e =
          static_cast<std::ptrdiff_t>(i) - static_cast<std::ptrdiff_t>(j);
      add(e, nearest(e) - 2);
      ++i;
      ++j;
    }
  }
  // 2f at (n + 1, m + 1) is s - 2 + nearest = n + m + nearest.
  return static_cast<std::size_t>((n + m + nearest(n - m)) / 2);
}

}  // namespace

std::size_t edit_distance(std::span<const user_id> a,
                          std::span<const user_id> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  if (strictly_increasing(a) && strictly_increasing(b)) {
    return edit_distance_sorted(a, b);
  }
  return edit_distance_dp(a, b);
}

}  // namespace mca::trace
