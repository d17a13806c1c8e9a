/// \file
/// Small numeric helpers shared across modules: integer factorization for
/// tiling enumeration, descriptive statistics for benchmark reporting, and
/// linear interpolation.

#ifndef CHRYSALIS_COMMON_MATH_UTILS_HPP
#define CHRYSALIS_COMMON_MATH_UTILS_HPP

#include <cstdint>
#include <vector>

namespace chrysalis {

/// Returns all positive divisors of \p n in increasing order.
/// \pre n >= 1.
std::vector<std::int64_t> divisors(std::int64_t n);

/// Returns ceil(a / b) for positive integers.
/// \pre b > 0.
constexpr std::int64_t
ceil_div(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/// Clamps \p value to [lo, hi].
constexpr double
clamp(double value, double lo, double hi)
{
    return value < lo ? lo : (value > hi ? hi : value);
}

/// Returns true when |a - b| <= tol * max(1, |a|, |b|) (scaled tolerance).
bool approx_equal(double a, double b, double tol = 1e-9);

/// Linear interpolation between two points.
double lerp(double a, double b, double t);

/// Descriptive statistics over a sample of doubles.
struct SummaryStats {
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;    ///< population standard deviation
    double median = 0.0;
    std::size_t count = 0;
};

/// Computes SummaryStats for \p samples (empty input yields all zeros).
SummaryStats summarize(const std::vector<double>& samples);

/// Geometric mean of strictly positive samples; returns 0 for empty input.
/// \pre every sample > 0.
double geometric_mean(const std::vector<double>& samples);

/// Relative improvement of `candidate` over `baseline` for a
/// lower-is-better metric, as a fraction: (baseline - candidate)/baseline.
/// \pre baseline > 0.
double relative_improvement(double baseline, double candidate);

}  // namespace chrysalis

#endif  // CHRYSALIS_COMMON_MATH_UTILS_HPP
