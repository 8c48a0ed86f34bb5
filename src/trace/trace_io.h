// Trace persistence: CSV export/import of the request log.
//
// The paper published its traces and case study alongside the code; these
// helpers round-trip a `log_store` through the same plain CSV format so
// experiments can be replayed, diffed, and fed to external tooling
// (gnuplot, R, pandas).
//
// Format: header `timestamp_ms,user,group,battery,rtt_ms`, one record per
// line, numbers in decimal.
#pragma once

#include <istream>
#include <ostream>

#include "trace/log_store.h"

namespace mca::trace {

/// Writes the whole store (chronologically sorted) as CSV.
/// Returns the number of records written.
std::size_t write_csv(const log_store& store, std::ostream& out);

/// Parses CSV produced by `write_csv` (header required) into a new store.
/// Throws std::invalid_argument on a malformed header, field count
/// mismatch, unparsable number, non-finite timestamp or RTT, negative RTT,
/// or battery level outside [0, 1] (the error message carries the line
/// number).
log_store read_csv(std::istream& in);

}  // namespace mca::trace
