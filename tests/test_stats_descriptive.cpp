// Tests for descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"

namespace {

using namespace kooza::stats;

TEST(Descriptive, MeanBasics) {
    const std::vector<double> xs{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Descriptive, VarianceUnbiased) {
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
}

TEST(Descriptive, StddevIsSqrtVariance) {
    const std::vector<double> xs{1, 3, 5};
    EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(variance(xs)));
}

TEST(Descriptive, QuantileInterpolates) {
    const std::vector<double> xs{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Descriptive, QuantileUnsortedInput) {
    const std::vector<double> xs{40, 10, 30, 20};
    EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Descriptive, QuantileErrors) {
    EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
    const std::vector<double> xs{1.0};
    EXPECT_THROW((void)quantile(xs, 1.5), std::invalid_argument);
    EXPECT_DOUBLE_EQ(quantile(xs, 0.9), 1.0);
}

TEST(Descriptive, MedianOddEven) {
    EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median(std::vector<double>{1, 2, 3, 4}), 2.5);
}

TEST(Descriptive, SummaryFields) {
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const auto s = summarize(xs);
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_NEAR(s.skewness, 0.0, 1e-12);
    EXPECT_FALSE(s.to_string().empty());
}

TEST(Descriptive, SummarySkewedData) {
    const std::vector<double> xs{1, 1, 1, 1, 100};
    EXPECT_GT(summarize(xs).skewness, 1.0);
}

TEST(Descriptive, SummaryEmpty) {
    const auto s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Descriptive, CvZeroWhenMeanZero) {
    const std::vector<double> xs{-1, 1};
    EXPECT_DOUBLE_EQ(summarize(xs).cv(), 0.0);
}

TEST(Descriptive, CorrelationPerfect) {
    const std::vector<double> xs{1, 2, 3, 4};
    const std::vector<double> ys{2, 4, 6, 8};
    EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
    const std::vector<double> ny{8, 6, 4, 2};
    EXPECT_NEAR(correlation(xs, ny), -1.0, 1e-12);
}

TEST(Descriptive, CorrelationDegenerate) {
    const std::vector<double> xs{1, 1, 1};
    const std::vector<double> ys{1, 2, 3};
    EXPECT_DOUBLE_EQ(correlation(xs, ys), 0.0);
    EXPECT_THROW((void)correlation(xs, std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Descriptive, VariationPct) {
    EXPECT_DOUBLE_EQ(variation_pct(110.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(variation_pct(90.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(variation_pct(5.0, 5.0), 0.0);
    // Zero baseline: absolute deviation in the quantity's own unit, not a
    // fake percentage.
    EXPECT_DOUBLE_EQ(variation_pct(0.02, 0.0), 0.02);
}

TEST(Descriptive, VariationStruct) {
    const auto rel = variation(110.0, 100.0);
    EXPECT_FALSE(rel.absolute);
    EXPECT_DOUBLE_EQ(rel.value, 10.0);

    // 0 vs 0 deviates by nothing: 0%, still a relative measure.
    const auto zero = variation(0.0, 0.0);
    EXPECT_FALSE(zero.absolute);
    EXPECT_DOUBLE_EQ(zero.value, 0.0);

    // Nonzero vs zero baseline: absolute difference, flagged as such. The
    // old behavior reported 16 KB vs 0 B as 1,638,400%.
    const auto abs = variation(16384.0, 0.0);
    EXPECT_TRUE(abs.absolute);
    EXPECT_DOUBLE_EQ(abs.value, 16384.0);

    const auto neg = variation(-3.0, 0.0);
    EXPECT_TRUE(neg.absolute);
    EXPECT_DOUBLE_EQ(neg.value, 3.0);
}

}  // namespace
