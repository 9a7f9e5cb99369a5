#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace bees::util {
namespace {

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.1234), "12.3%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Table, RowsArePaddedToHeaderWidth) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  ASSERT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Each printed line should have the same leading column width: "x" padded
  // to at least the width of "longer".
  const auto x_pos = out.find("\nx");
  ASSERT_NE(x_pos, std::string::npos);
  const auto line_end = out.find('\n', x_pos + 1);
  const std::string x_line = out.substr(x_pos + 1, line_end - x_pos - 1);
  EXPECT_GE(x_line.find('1'), std::string("longer").size());
}

TEST(Table, BannerContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Figure 7: Energy overhead");
  EXPECT_NE(os.str().find("Figure 7"), std::string::npos);
}

}  // namespace
}  // namespace bees::util
