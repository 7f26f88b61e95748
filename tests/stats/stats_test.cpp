#include <gtest/gtest.h>

#include <vector>

#include "stats/descriptive.h"
#include "util/error.h"

namespace hedra::stats {
namespace {

TEST(DescriptiveTest, SummaryOfKnownSample) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);
}

TEST(DescriptiveTest, SingleElement) {
  const Summary s = summarize({3.5});
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(DescriptiveTest, OddMedian) {
  EXPECT_DOUBLE_EQ(summarize({3.0, 1.0, 2.0}).median, 2.0);
}

TEST(DescriptiveTest, EmptySampleThrows) {
  EXPECT_THROW((void)summarize({}), Error);
  EXPECT_THROW((void)mean({}), Error);
}

TEST(DescriptiveTest, Percentiles) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_THROW((void)percentile(v, 101), Error);
  EXPECT_THROW((void)percentile({}, 50), Error);
}

TEST(DescriptiveTest, PercentageChange) {
  EXPECT_DOUBLE_EQ(percentage_change(120.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(percentage_change(80.0, 100.0), -20.0);
  EXPECT_THROW((void)percentage_change(1.0, 0.0), Error);
}

}  // namespace
}  // namespace hedra::stats
