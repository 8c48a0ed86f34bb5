#include "util/csv.h"

#include <gtest/gtest.h>

#include <sstream>

namespace mca::util {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("123.5"), "123.5");
}

TEST(CsvEscape, QuotesFieldsWithSpecials) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream out;
  csv_writer w{out, {"a", "b"}};
  w.row({"1", "2"});
  w.row({"x,y", "z"});
  EXPECT_EQ(out.str(), "a,b\n1,2\n\"x,y\",z\n");
}

TEST(CsvWriter, RowValuesFormatsNumbers) {
  std::ostringstream out;
  csv_writer w{out, {"n", "x", "s"}};
  w.row_values(42, 3.25, "label");
  EXPECT_EQ(out.str(), "n,x,s\n42,3.25,label\n");
}

TEST(CsvWriter, FieldCountMismatchThrows) {
  std::ostringstream out;
  csv_writer w{out, {"a", "b"}};
  EXPECT_THROW(w.row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(w.row({"1", "2", "3"}), std::invalid_argument);
}

TEST(CsvWriter, EmptyHeaderThrows) {
  std::ostringstream out;
  EXPECT_THROW(csv_writer(out, {}), std::invalid_argument);
}

TEST(CsvWriter, DoubleFormattingIsCompact) {
  EXPECT_EQ(csv_writer::format_field(1.0), "1");
  EXPECT_EQ(csv_writer::format_field(0.5), "0.5");
  EXPECT_EQ(csv_writer::format_field(1234567.0), "1.23457e+06");
}

}  // namespace
}  // namespace mca::util
