#include "util/error.h"

#include <gtest/gtest.h>

#include <string>

namespace hedra {
namespace {

Error caught_require(int value) {
  try {
    HEDRA_REQUIRE(value > 0, "value must be positive");
  } catch (const Error& e) {
    return e;
  }
  return Error("(not thrown)");
}

TEST(ErrorTest, RequireKeepsTheCheckOutOfTheMessage) {
  const Error e = caught_require(-1);
  EXPECT_EQ(e.message(), "precondition violated: value must be positive");
  EXPECT_TRUE(e.where().starts_with("value > 0 at ")) << e.where();
  EXPECT_NE(e.where().find("error_test.cpp:"), std::string::npos);
  EXPECT_EQ(std::string(e.what()), e.message() + " [" + e.where() + "]");
}

TEST(ErrorTest, PlainErrorHasNoLocation) {
  const Error e("line 3: unknown directive 'x'");
  EXPECT_EQ(e.message(), "line 3: unknown directive 'x'");
  EXPECT_EQ(e.where(), "");
  EXPECT_EQ(std::string(e.what()), e.message());
}

}  // namespace
}  // namespace hedra
