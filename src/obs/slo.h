// SLO percentile reporting: p50/p95/p99/p99.9 response time per group and
// fleet-wide, extracted from util::histogram with within-bin linear
// interpolation (histogram::quantile_interpolated), each within a relative
// 2^-5 of the exact percentile of the recorded responses.
#pragma once

#include <string>
#include <vector>

#include "obs/registry.h"
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

struct slo_report {
  /// rows[0] is the fleet-wide row; one row per group follows.
  std::vector<slo_row> rows;
};

/// Percentiles of one histogram (zeros when empty).
slo_row slo_from_histogram(const util::histogram& h, std::string label);

/// The full report off a registry's SLO histograms.
slo_report build_slo_report(const registry& reg);

}  // namespace mca::obs
