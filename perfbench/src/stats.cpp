#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double position =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double weight = position - static_cast<double>(lower);
    return values[lower] + weight * (values[upper] - values[lower]);
}

double
median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}

double
mean(const std::vector<double>& values)
{
    double sum = 0.0;
    for (double value : values)
        sum += value;
    return ratio(sum, static_cast<double>(values.size()));
}

double
ratio(double numerator, double denominator)
{
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double
residual_share(double parent, double children)
{
    return parent == 0.0 ? 0.0 : (parent - children) / parent;
}

namespace {

bool
near(double actual, double expected, const char* what)
{
    if (std::fabs(actual - expected) <= 1e-12 * std::max(1.0, std::fabs(expected)))
        return true;
    std::fprintf(stderr, "self-test failed: %s = %.17g, expected %.17g\n",
                 what, actual, expected);
    return false;
}

}  // namespace

bool
stats_self_test()
{
    const std::vector<double> five = {5.0, 1.0, 4.0, 2.0, 3.0};
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(static_cast<double>(i));
    // Python's statistics.quantiles(range(1, 101), n=4, method="inclusive")
    // gives 25.75 / 50.5 / 75.25 — the same R-7 definition.
    return near(quantile(five, 0.5), 3.0, "median of 1..5") &&
           near(quantile(five, 0.0), 1.0, "min of 1..5") &&
           near(quantile(five, 1.0), 5.0, "max of 1..5") &&
           near(quantile(five, 0.25), 2.0, "q25 of 1..5") &&
           near(quantile({1.0, 2.0}, 0.5), 1.5, "median of {1,2}") &&
           near(quantile({}, 0.5), 0.0, "quantile of nothing") &&
           near(quantile(hundred, 0.25), 25.75, "q25 of 1..100") &&
           near(quantile(hundred, 0.75), 75.25, "q75 of 1..100") &&
           near(median(hundred), 50.5, "median of 1..100") &&
           near(mean(five), 3.0, "mean of 1..5") &&
           near(mean({}), 0.0, "mean of nothing") &&
           near(quantile(hundred, 0.9), 90.1, "p90 of 1..100") &&
           near(ratio(3.0, 4.0), 0.75, "ratio") &&
           near(ratio(3.0, 0.0), 0.0, "ratio by zero") &&
           near(residual_share(10.0, 9.0), 0.1, "residual share") &&
           near(residual_share(0.0, 1.0), 0.0, "residual of zero parent");
}

}  // namespace perfbench
