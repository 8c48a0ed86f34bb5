// Fixture for tests/unreached_functions_selftest.cmake: one case of each
// kind the reachability audit must sort, named for what it expects.
#pragma once

namespace mca::fix {

/// An aggregate with default member initializers: `point p;` in a reached
/// function is initialized inline, yet -fkeep-inline-functions emits its
/// implicit default constructor, which no program calls.  Compiler-made,
/// so not reported.
struct point {
  int x = 1;
  int y = 2;
};

class widget {
 public:
  /// Reached: the program calls it.
  int reached_inline() const {
    point p;
    // Called directly, so the closure's _FUN thunk and conversion
    // operator stay unused.  Compiler-made, so not reported.
    const auto twice = [](int v) { return 2 * v; };
    return twice(value_ + p.x);
  }
  /// Unreached: only -fkeep-inline-functions gives it a symbol.
  int unreached_inline() const { return value_ + 1; }

 private:
  int value_ = 3;
};

int reached_out_of_line(int v);
/// Unreached, defined in the library.
int unreached_out_of_line(int v);
/// Unreached, but named in tools/unreached_allowlist.txt.
int allowlisted(int v);

}  // namespace mca::fix
