#include "fix/widget.h"

namespace mca::fix {

int reached_out_of_line(int v) { return widget{}.reached_inline() + v; }

int unreached_out_of_line(int v) { return v - 1; }

int allowlisted(int v) { return v * 3; }

}  // namespace mca::fix
