#include "stats.h"

#include <gtest/gtest.h>

namespace cqpbench {
namespace {

TEST(StatsTest, QuartilesMatchPythonExclusiveRule) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v = {7, 1, 10, 4, 2, 9, 3, 6, 8, 5};
  Summary s = Summarize(v);
  EXPECT_EQ(s.n, 10u);
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
}

TEST(StatsTest, MedianOfOddAndTinySamples) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0}), 1.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(16), 50.0);    // a 16-sample "p99" is the max
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(10000), 99.9);
}

TEST(StatsTest, TailIsNeverTheMaximumOfASmallSample) {
  std::vector<double> v;
  for (int i = 1; i <= 32; ++i) v.push_back(i);
  Summary s = Summarize(v);
  EXPECT_EQ(s.tail_pct, 50.0);
  EXPECT_LT(s.tail, 32.0);

  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  s = Summarize(v);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.99);  // position 0.99 * 1001
}

TEST(StatsTest, FormatPrintsSampleCount) {
  Summary s = Summarize({1.0, 2.0, 3.0});
  EXPECT_NE(FormatSummary(s, "ms").find("(n=3)"), std::string::npos);
}

}  // namespace
}  // namespace cqpbench
