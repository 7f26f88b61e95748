#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"
#include "stats/series.h"
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

TEST(SeriesTest, AccumulatesPerKey) {
  Series s("demo");
  s.add(0.1, 10.0);
  s.add(0.1, 20.0);
  s.add(0.2, 30.0);
  EXPECT_EQ(s.xs(), (std::vector<double>{0.1, 0.2}));
  EXPECT_DOUBLE_EQ(s.at(0.1).mean, 15.0);
  EXPECT_DOUBLE_EQ(s.at(0.2).mean, 30.0);
  EXPECT_THROW((void)s.at(0.3), Error);
}

TEST(SeriesTest, MeanPointsAscending) {
  Series s;
  s.add(0.3, 1.0);
  s.add(0.1, 2.0);
  s.add(0.2, 3.0);
  const auto points = s.mean_points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].first, 0.1);
  EXPECT_DOUBLE_EQ(points[2].first, 0.3);
}

TEST(SeriesTest, GlobalMaxAndArgmax) {
  Series s;
  s.add(0.1, -5.0);
  s.add(0.2, 2.0);
  s.add(0.2, 8.0);
  s.add(0.3, 4.0);
  EXPECT_DOUBLE_EQ(s.global_max(), 8.0);
  EXPECT_DOUBLE_EQ(s.argmax_mean(), 0.2);  // mean 5.0 beats 4.0
}

TEST(SeriesTest, FirstSignChangeDetectsCrossover) {
  Series s;
  s.add(0.01, -3.0);
  s.add(0.05, -1.0);
  s.add(0.10, 2.0);
  s.add(0.20, 5.0);
  EXPECT_DOUBLE_EQ(s.first_sign_change(), 0.10);
}

TEST(SeriesTest, NoSignChangeIsNaN) {
  Series s;
  s.add(0.1, 1.0);
  s.add(0.2, 2.0);
  EXPECT_TRUE(std::isnan(s.first_sign_change()));
}

TEST(SeriesTest, EmptySeriesGuards) {
  const Series s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW((void)s.global_max(), Error);
  EXPECT_THROW((void)s.argmax_mean(), Error);
}

}  // namespace
}  // namespace hedra::stats
