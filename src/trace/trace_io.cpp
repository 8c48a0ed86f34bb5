#include "trace/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace mca::trace {
namespace {

constexpr const char* kHeader = "timestamp_ms,user,group,battery,rtt_ms";

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const auto comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

[[noreturn]] void reject(std::size_t line_number, const std::string& what) {
  throw std::invalid_argument{"trace csv line " +
                              std::to_string(line_number) + ": " + what};
}

double parse_double(const std::string& field, std::size_t line_number) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(field, &consumed);
    if (consumed != field.size()) throw std::invalid_argument{"trailing"};
    return value;
  } catch (const std::exception&) {
    reject(line_number, "bad number '" + field + "'");
  }
}

std::uint32_t parse_u32(const std::string& field, std::size_t line_number) {
  std::uint32_t value = 0;
  const auto* first = field.data();
  const auto* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    reject(line_number, "bad integer '" + field + "'");
  }
  return value;
}

}  // namespace

std::size_t write_csv(const log_store& store, std::ostream& out) {
  out << kHeader << '\n';
  // in_range over everything yields the chronologically sorted view.
  const auto sorted = store.in_range(-1e300, 1e300);
  char buffer[160];
  for (const auto& r : sorted) {
    std::snprintf(buffer, sizeof buffer, "%.6f,%u,%u,%.6f,%.6f", r.timestamp,
                  r.user, r.group, r.battery_level, r.rtt_ms);
    out << buffer << '\n';
  }
  return sorted.size();
}

log_store read_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    throw std::invalid_argument{"trace csv: missing or wrong header"};
  }
  log_store store;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    if (fields.size() != 5) {
      reject(line_number,
             "expected 5 fields, got " + std::to_string(fields.size()));
    }
    trace_record record;
    record.timestamp = parse_double(fields[0], line_number);
    record.user = parse_u32(fields[1], line_number);
    record.group = parse_u32(fields[2], line_number);
    record.battery_level = parse_double(fields[3], line_number);
    record.rtt_ms = parse_double(fields[4], line_number);
    // std::stod reads "nan" and "inf": a NaN timestamp would break the
    // store's chronological sort and fall out of every range.
    if (!std::isfinite(record.timestamp)) {
      reject(line_number, "non-finite timestamp '" + fields[0] + "'");
    }
    if (!std::isfinite(record.rtt_ms) || record.rtt_ms < 0.0) {
      reject(line_number, "RTT '" + fields[4] + "' is not a finite, "
                          "non-negative number");
    }
    if (!(record.battery_level >= 0.0 && record.battery_level <= 1.0)) {
      reject(line_number, "battery '" + fields[3] + "' outside [0, 1]");
    }
    store.append(record);
  }
  return store;
}

}  // namespace mca::trace
