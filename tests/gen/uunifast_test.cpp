#include "gen/uunifast.h"

#include <gtest/gtest.h>

#include <numeric>

#include "util/error.h"

namespace hedra::gen {
namespace {

TEST(UUniFastTest, SumsToTotal) {
  Rng rng(1);
  for (const double total : {0.5, 1.0, 3.7}) {
    const auto utils = uunifast(6, total, rng);
    const double sum = std::accumulate(utils.begin(), utils.end(), 0.0);
    EXPECT_NEAR(sum, total, 1e-12);
  }
}

TEST(UUniFastTest, AllPositive) {
  Rng rng(2);
  for (int round = 0; round < 100; ++round) {
    for (const double u : uunifast(8, 4.0, rng)) {
      EXPECT_GT(u, 0.0);
      EXPECT_LT(u, 4.0);
    }
  }
}

TEST(UUniFastTest, SingleTaskTakesAll) {
  Rng rng(3);
  const auto utils = uunifast(1, 2.5, rng);
  ASSERT_EQ(utils.size(), 1u);
  EXPECT_DOUBLE_EQ(utils.front(), 2.5);
}

TEST(UUniFastTest, MeanIsTotalOverN) {
  Rng rng(4);
  double acc = 0.0;
  const int rounds = 2000;
  for (int i = 0; i < rounds; ++i) acc += uunifast(4, 2.0, rng)[0];
  EXPECT_NEAR(acc / rounds, 0.5, 0.03);
}

TEST(UUniFastTest, InvalidArgsThrow) {
  Rng rng(5);
  EXPECT_THROW(uunifast(0, 1.0, rng), Error);
  EXPECT_THROW(uunifast(3, 0.0, rng), Error);
}

}  // namespace
}  // namespace hedra::gen
