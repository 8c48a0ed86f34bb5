// Minimal CSV emission for bench output.
//
// Every bench binary prints figure series as CSV to stdout so the paper's
// plots can be regenerated with gnuplot exactly as the authors did.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mca::util {

/// Streams rows as RFC-4180-ish CSV (quotes fields containing , " or \n).
class csv_writer {
 public:
  /// Writes the header row immediately.
  csv_writer(std::ostream& out, std::vector<std::string> columns);

  /// Writes one row; throws std::invalid_argument if the field count does
  /// not match the header.
  void row(const std::vector<std::string>& fields);

  /// Convenience: formats arithmetic values with %.6g semantics.
  template <typename... Ts>
  void row_values(const Ts&... values) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(values));
    (fields.push_back(format_field(values)), ...);
    row(fields);
  }

  static std::string format_field(double v);
  static std::string format_field(int v) { return std::to_string(v); }
  static std::string format_field(unsigned v) { return std::to_string(v); }
  static std::string format_field(unsigned long v) { return std::to_string(v); }
  static std::string format_field(std::string_view v) { return std::string{v}; }
  static std::string format_field(const char* v) { return std::string{v}; }

 private:
  void write_row(const std::vector<std::string>& fields);

  std::ostream& out_;
  std::size_t columns_;
};

/// Quotes a single CSV field if needed.
std::string csv_escape(std::string_view field);

}  // namespace mca::util
