#include "util/strings.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace hedra {
namespace {

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("node v1", "node"));
  EXPECT_FALSE(starts_with("edge", "node"));
  EXPECT_TRUE(starts_with("x", ""));
  EXPECT_FALSE(starts_with("", "x"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(format_percent(12.34, 1), "+12.3%");
  EXPECT_EQ(format_percent(-4.56, 1), "-4.6%");
  EXPECT_EQ(format_percent(0.0, 1), "+0.0%");
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("  -17 "), -17);
  EXPECT_THROW((void)parse_int("12x"), Error);
  EXPECT_THROW((void)parse_int(""), Error);
  EXPECT_THROW((void)parse_int("3.5"), Error);
}

TEST(StringsTest, ParseReal) {
  EXPECT_DOUBLE_EQ(parse_real("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_real(" -1e3 "), -1000.0);
  EXPECT_THROW((void)parse_real("abc"), Error);
  EXPECT_THROW((void)parse_real(""), Error);
  EXPECT_THROW((void)parse_real("1.2.3"), Error);
}

}  // namespace
}  // namespace hedra
