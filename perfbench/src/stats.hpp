/// \file
/// Percentile and ratio math of the benchmark report.

#ifndef CHRYSALIS_PERFBENCH_SRC_STATS_HPP
#define CHRYSALIS_PERFBENCH_SRC_STATS_HPP

#include <cstddef>
#include <vector>

namespace perfbench {

/// Quantile \p q in [0, 1] of \p values with linear interpolation
/// between closest ranks (the "R-7" definition). 0 for no values.
double quantile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// Arithmetic mean; 0 for no values.
double mean(const std::vector<double>& values);

/// \p numerator / \p denominator, 0 when the denominator is 0.
double ratio(double numerator, double denominator);

/// (parent - children) / parent: the share of a parent rung its
/// children do not explain. 0 when the parent is 0.
double residual_share(double parent, double children);

/// Runs the self-tests of this file's math; returns false and prints
/// the failing case to stderr on the first failure.
bool stats_self_test();

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_STATS_HPP
