/// \file
/// Tests for numeric helpers: divisors, interpolation, statistics.

#include "common/math_utils.hpp"

#include <gtest/gtest.h>

namespace chrysalis {
namespace {

TEST(DivisorsTest, One)
{
    EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
}

TEST(DivisorsTest, Prime)
{
    EXPECT_EQ(divisors(13), (std::vector<std::int64_t>{1, 13}));
}

TEST(DivisorsTest, PerfectSquare)
{
    EXPECT_EQ(divisors(36),
              (std::vector<std::int64_t>{1, 2, 3, 4, 6, 9, 12, 18, 36}));
}

TEST(DivisorsTest, Composite)
{
    EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
}

class DivisorsPropertyTest : public ::testing::TestWithParam<std::int64_t>
{
};

TEST_P(DivisorsPropertyTest, AllDivideEvenlyAndSorted)
{
    const std::int64_t n = GetParam();
    const auto divs = divisors(n);
    ASSERT_FALSE(divs.empty());
    EXPECT_EQ(divs.front(), 1);
    EXPECT_EQ(divs.back(), n);
    for (std::size_t i = 0; i < divs.size(); ++i) {
        EXPECT_EQ(n % divs[i], 0) << "divisor " << divs[i];
        if (i > 0) {
            EXPECT_LT(divs[i - 1], divs[i]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DivisorsPropertyTest,
                         ::testing::Values(1, 2, 7, 16, 55, 96, 128, 168,
                                           224, 1000, 4096));

TEST(CeilDivTest, ExactAndInexact)
{
    EXPECT_EQ(ceil_div(10, 5), 2);
    EXPECT_EQ(ceil_div(11, 5), 3);
    EXPECT_EQ(ceil_div(1, 5), 1);
    EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(ClampTest, Basic)
{
    EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 10.0), 5.0);
    EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(11.0, 0.0, 10.0), 10.0);
}

TEST(ApproxEqualTest, ScaledTolerance)
{
    EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
    EXPECT_TRUE(approx_equal(1e9, 1e9 + 1.0 - 0.5, 1e-9));
    EXPECT_FALSE(approx_equal(1.0, 1.1));
    EXPECT_TRUE(approx_equal(0.0, 0.0));
}

TEST(LerpTest, Endpoints)
{
    EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 0.0), 2.0);
    EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 1.0), 6.0);
    EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 0.5), 4.0);
}

TEST(SummarizeTest, EmptyInput)
{
    const SummaryStats stats = summarize({});
    EXPECT_EQ(stats.count, 0u);
    EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

TEST(SummarizeTest, SingleElement)
{
    const SummaryStats stats = summarize({5.0});
    EXPECT_EQ(stats.count, 1u);
    EXPECT_DOUBLE_EQ(stats.min, 5.0);
    EXPECT_DOUBLE_EQ(stats.max, 5.0);
    EXPECT_DOUBLE_EQ(stats.mean, 5.0);
    EXPECT_DOUBLE_EQ(stats.median, 5.0);
    EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(SummarizeTest, KnownDistribution)
{
    const SummaryStats stats = summarize({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(stats.mean, 2.5);
    EXPECT_DOUBLE_EQ(stats.median, 2.5);
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 4.0);
    EXPECT_NEAR(stats.stddev, 1.118, 1e-3);
}

TEST(SummarizeTest, OddCountMedian)
{
    const SummaryStats stats = summarize({9.0, 1.0, 5.0});
    EXPECT_DOUBLE_EQ(stats.median, 5.0);
}

TEST(GeometricMeanTest, Basics)
{
    EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
    EXPECT_DOUBLE_EQ(geometric_mean({4.0}), 4.0);
    EXPECT_NEAR(geometric_mean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-9);
}

TEST(RelativeImprovementTest, Directions)
{
    EXPECT_NEAR(relative_improvement(100.0, 50.0), 0.5, 1e-12);
    EXPECT_NEAR(relative_improvement(100.0, 100.0), 0.0, 1e-12);
    EXPECT_NEAR(relative_improvement(100.0, 150.0), -0.5, 1e-12);
}

}  // namespace
}  // namespace chrysalis
