// SLO percentile reporting: p50/p95/p99/p99.9 response time of one latency
// histogram (a group's, the fleet's or a scenario's), extracted with
// within-bin linear interpolation (histogram::quantile_interpolated), each
// within a relative 2^-5 of the exact percentile of the recorded responses.
#pragma once

#include <string>

#include "util/histogram.h"

namespace mca::obs {

struct slo_row {
  std::string label;         ///< "fleet" or "group N"
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Percentiles of one histogram (zeros when empty).
slo_row slo_from_histogram(const util::histogram& h, std::string label);

}  // namespace mca::obs
