/// \file
/// NSGA-II-style multi-objective optimizer (2 objectives, minimized).
///
/// Figure 6 positions designs on the (solar-panel size, latency) tradeoff
/// curve. The single-objective explorer recovers a front from its search
/// history as a by-product; this dedicated multi-objective GA searches
/// *for* the front: fast non-dominated sorting, crowding-distance
/// selection and the same variation operators as the single-objective GA.

#ifndef CHRYSALIS_SEARCH_NSGA2_HPP
#define CHRYSALIS_SEARCH_NSGA2_HPP

#include <array>
#include <functional>
#include <vector>

#include "search/optimizer.hpp"

namespace chrysalis::search {

/// A bi-objective fitness: returns {f1, f2}, both minimized. Infeasible
/// points should return large values in both coordinates. Receives the
/// deterministic evaluation index (see IndexedFitnessFn); must be
/// thread-safe when OptimizerOptions::threads != 1.
using IndexedBiFitnessFn = std::function<std::array<double, 2>(
    std::size_t index, const std::vector<double>&)>;

/// One evaluated point of a multi-objective run.
struct BiEvaluatedPoint {
    std::vector<double> genes;
    std::array<double, 2> objectives{0.0, 0.0};
};

/// Result: the non-dominated set of the final population plus history.
struct Nsga2Result {
    std::vector<BiEvaluatedPoint> front;    ///< non-dominated, sorted by f1
    std::vector<BiEvaluatedPoint> history;  ///< every evaluation
    int evaluations = 0;
};

/// Pareto dominance for minimization (strictly better in >= 1 coord).
bool bi_dominates(const std::array<double, 2>& a,
                  const std::array<double, 2>& b);

/// Fast non-dominated sort: returns the front index (0 = best) of each
/// point.
std::vector<int> non_dominated_ranks(
    const std::vector<std::array<double, 2>>& objectives);

/// Crowding distance within one front (same-index subset of points).
/// Boundary points get +infinity.
std::vector<double> crowding_distances(
    const std::vector<std::array<double, 2>>& objectives);

/// Runs the NSGA-II loop. Reuses OptimizerOptions for budget/variation
/// parameters (seed_genes are honoured, population batches are evaluated
/// on `opts.threads` pool workers with index-ordered reduction).
Nsga2Result optimize_nsga2(int gene_count, const OptimizerOptions& opts,
                           const IndexedBiFitnessFn& fitness);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_NSGA2_HPP
