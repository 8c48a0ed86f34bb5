#include "obs/slo.h"

#include <utility>

namespace mca::obs {

slo_row slo_from_histogram(const util::histogram& h, std::string label) {
  slo_row row;
  row.label = std::move(label);
  row.samples = h.total();
  if (row.samples > 0) {
    row.p50_ms = h.quantile_interpolated(0.50);
    row.p95_ms = h.quantile_interpolated(0.95);
    row.p99_ms = h.quantile_interpolated(0.99);
    row.p999_ms = h.quantile_interpolated(0.999);
  }
  return row;
}

}  // namespace mca::obs
