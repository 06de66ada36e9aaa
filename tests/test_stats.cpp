#include "common/stats.hpp"

#include <gtest/gtest.h>

#include "common/table.hpp"
#include "support/quantile.hpp"

#include <sstream>

namespace streamflow {
namespace {

TEST(RunningStats, MatchesHandComputation) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, StudentTQuantiles) {
  // Spot-check the 97.5% table against published values and the cutoff
  // behavior: exact through df = 30, normal approximation beyond.
  EXPECT_DOUBLE_EQ(RunningStats::t975_quantile(1), 12.706);
  EXPECT_DOUBLE_EQ(RunningStats::t975_quantile(3), 3.182);
  EXPECT_DOUBLE_EQ(RunningStats::t975_quantile(7), 2.365);
  EXPECT_DOUBLE_EQ(RunningStats::t975_quantile(30), 2.042);
  EXPECT_DOUBLE_EQ(RunningStats::t975_quantile(31), 1.96);
  EXPECT_DOUBLE_EQ(RunningStats::t975_quantile(1000), 1.96);
  EXPECT_TRUE(std::isinf(RunningStats::t975_quantile(0)));
}

TEST(RunningStats, CiHalfWidthUsesStudentT) {
  // Two samples (df = 1): half-width = 12.706 * s / sqrt(2). The old normal
  // constant would give an interval 6.5x too narrow here.
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  const double sd = s.stddev();  // sqrt(2)
  EXPECT_NEAR(s.ci95_halfwidth(), 12.706 * sd / std::sqrt(2.0), 1e-12);

  RunningStats one;
  EXPECT_TRUE(std::isinf(one.ci95_halfwidth()));
  one.add(4.2);
  EXPECT_TRUE(std::isinf(one.ci95_halfwidth()));
}

TEST(RelativeDifference, Basics) {
  EXPECT_DOUBLE_EQ(relative_difference(1.0, 1.0), 0.0);
  EXPECT_NEAR(relative_difference(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_NEAR(relative_difference(-2.0, 2.0), 2.0, 1e-12);
  EXPECT_GT(relative_difference(0.0, 1e-300), 0.0);
}

TEST(Quantile, LinearInterpolation) {
  std::vector<double> data{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile(data, 1.5), InvalidArgument);
}

TEST(Table, AlignsAndRendersCsv) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), std::int64_t{42}});
  std::ostringstream text;
  t.print(text, "demo");
  EXPECT_NE(text.str().find("== demo =="), std::string::npos);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.5000\nb,42\n");
}

TEST(Table, RejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), InvalidArgument);
  EXPECT_THROW(Table({}), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
