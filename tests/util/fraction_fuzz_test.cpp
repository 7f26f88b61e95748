#include <gtest/gtest.h>

#include <cmath>

#include "util/fraction.h"
#include "util/rng.h"

/// Randomised algebraic checks for Frac.  Every response-time comparison in
/// the library runs through this class, so field axioms and agreement with
/// floating point (within rounding) are exercised across thousands of
/// random operand pairs.

namespace hedra {
namespace {

Frac random_frac(Rng& rng) {
  // Numerators/denominators sized so products stay well inside int64.
  const std::int64_t num = rng.uniform_int(-1000000, 1000000);
  const std::int64_t den = rng.uniform_int(1, 1000000);
  return Frac(num, den);
}

class FracFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FracFuzz, FieldAxioms) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const Frac a = random_frac(rng);
    const Frac b = random_frac(rng);
    const Frac c = random_frac(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Frac(0), a);
    EXPECT_EQ(a * Frac(1), a);
    EXPECT_EQ(a - a, Frac(0));
    if (b != Frac(0)) {
      EXPECT_EQ(a * b / b, a);
    }
  }
}

TEST_P(FracFuzz, AgreesWithDoubleWithinRounding) {
  Rng rng(GetParam() + 10);
  for (int i = 0; i < 2000; ++i) {
    const Frac a = random_frac(rng);
    const Frac b = random_frac(rng);
    const double expected = a.to_double() + b.to_double();
    EXPECT_NEAR((a + b).to_double(), expected,
                1e-9 * (1.0 + std::fabs(expected)));
  }
}

TEST_P(FracFuzz, OrderingIsTotalAndConsistent) {
  Rng rng(GetParam() + 20);
  for (int i = 0; i < 2000; ++i) {
    const Frac a = random_frac(rng);
    const Frac b = random_frac(rng);
    const bool lt = a < b;
    const bool gt = a > b;
    const bool eq = a == b;
    EXPECT_EQ(static_cast<int>(lt) + static_cast<int>(gt) +
                  static_cast<int>(eq),
              1);
    if (lt) {
      EXPECT_LT(a.to_double(), b.to_double() + 1e-9);
    }
    // Translation invariance: a < b  <=>  a + c < b + c.
    const Frac c = random_frac(rng);
    EXPECT_EQ(a < b, a + c < b + c);
  }
}

TEST_P(FracFuzz, FloorCeilBracketValue) {
  Rng rng(GetParam() + 30);
  for (int i = 0; i < 2000; ++i) {
    const Frac a = random_frac(rng);
    EXPECT_LE(Frac(a.floor()), a);
    EXPECT_GE(Frac(a.ceil()), a);
    EXPECT_LE(a.ceil() - a.floor(), 1);
  }
}

TEST_P(FracFuzz, StringRoundTripViaParts) {
  Rng rng(GetParam() + 40);
  for (int i = 0; i < 500; ++i) {
    const Frac a = random_frac(rng);
    const Frac rebuilt(a.num(), a.den());
    EXPECT_EQ(rebuilt, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FracFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace hedra
