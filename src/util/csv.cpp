#include "util/csv.h"

#include <cstdio>
#include <stdexcept>

namespace mca::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n") != std::string_view::npos;
  if (!needs_quotes) return std::string{field};
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

csv_writer::csv_writer(std::ostream& out, std::vector<std::string> columns)
    : out_{out}, columns_{columns.size()} {
  if (columns.empty()) throw std::invalid_argument{"csv_writer: no columns"};
  write_row(columns);
}

void csv_writer::row(const std::vector<std::string>& fields) {
  if (fields.size() != columns_) {
    throw std::invalid_argument{"csv_writer: field count mismatch"};
  }
  write_row(fields);
}

void csv_writer::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& field : fields) {
    if (!first) out_ << ',';
    out_ << csv_escape(field);
    first = false;
  }
  out_ << '\n';
}

std::string csv_writer::format_field(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace mca::util
