/// \file
/// Tests for the GA / random / grid black-box optimizers.

#include "search/optimizer.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace chrysalis::search {
namespace {

/// Convex bowl with optimum at (0.3, 0.7). The fitness functions below
/// ignore the evaluation index.
double
bowl(std::size_t, const std::vector<double>& genes)
{
    const double dx = genes[0] - 0.3;
    const double dy = genes[1] - 0.7;
    return dx * dx + dy * dy;
}

/// Deceptive multi-modal function: narrow global optimum at 0.85, broad
/// local optimum at 0.2.
double
deceptive(std::size_t, const std::vector<double>& genes)
{
    const double x = genes[0];
    const double local = 0.5 + 0.5 * std::pow(x - 0.2, 2.0);
    const double global = 10.0 * std::pow(x - 0.85, 2.0);
    return std::min(local, global);
}

OptimizerOptions
small_budget()
{
    OptimizerOptions options;
    options.population = 16;
    options.generations = 12;
    options.seed = 5;
    return options;
}

TEST(OptimizerTest, StrategyLabels)
{
    EXPECT_EQ(to_string(OptimizerStrategy::kGenetic), "ga");
    EXPECT_EQ(to_string(OptimizerStrategy::kRandom), "random");
    EXPECT_EQ(to_string(OptimizerStrategy::kGrid), "grid");
}

TEST(GeneticOptimizerTest, FindsBowlMinimum)
{
    const auto result = optimize_genetic(2, small_budget(), bowl);
    EXPECT_LT(result.best_score, 0.01);
    EXPECT_NEAR(result.best_genes[0], 0.3, 0.12);
    EXPECT_NEAR(result.best_genes[1], 0.7, 0.12);
}

TEST(GeneticOptimizerTest, DeterministicForSeed)
{
    const auto a = optimize_genetic(2, small_budget(), bowl);
    const auto b = optimize_genetic(2, small_budget(), bowl);
    EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
    EXPECT_EQ(a.best_genes, b.best_genes);
}

TEST(GeneticOptimizerTest, HistoryMatchesEvaluations)
{
    const auto options = small_budget();
    const auto result = optimize_genetic(2, options, bowl);
    EXPECT_EQ(result.evaluations,
              static_cast<int>(result.history.size()));
    // Elites carry over without re-evaluation: pop + (gens-1)*(pop-elite).
    EXPECT_EQ(result.evaluations,
              options.population +
                  (options.generations - 1) *
                      (options.population - options.elitism));
}

TEST(GeneticOptimizerTest, BestIsGlobalMinimumOfHistory)
{
    const auto result = optimize_genetic(3, small_budget(), bowl);
    for (const auto& point : result.history)
        EXPECT_GE(point.score, result.best_score);
}

TEST(GeneticOptimizerTest, BeatsRandomInHigherDimensions)
{
    // In 1-D a couple hundred random samples saturate any landscape; the
    // GA's advantage appears when the search space has several knobs
    // (5 genes, like the future-AuT space). Quadratic bowl centered off
    // the middle of the cube.
    const auto bowl5 = [](std::size_t, const std::vector<double>& genes) {
        double sum = 0.0;
        const double targets[5] = {0.3, 0.7, 0.15, 0.9, 0.5};
        for (int i = 0; i < 5; ++i) {
            const double d = genes[static_cast<std::size_t>(i)] -
                             targets[i];
            sum += d * d;
        }
        return sum;
    };
    double ga_sum = 0.0, random_sum = 0.0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        OptimizerOptions options = small_budget();
        options.seed = seed;
        ga_sum += optimize_genetic(5, options, bowl5).best_score;
        random_sum += optimize_random(5, options, bowl5).best_score;
    }
    EXPECT_LT(ga_sum, random_sum);
    (void)deceptive;  // the 1-D landscape is still exercised below
}

TEST(GeneticOptimizerTest, SolvesDeceptiveLandscape)
{
    OptimizerOptions options = small_budget();
    const auto result = optimize_genetic(1, options, deceptive);
    // Global optimum basin: 10(x-0.85)^2 < 0.5 within |x-0.85| < 0.22.
    EXPECT_LT(result.best_score, 0.05);
}

TEST(RandomOptimizerTest, RespectsBudgetAndRange)
{
    const auto options = small_budget();
    const auto result = optimize_random(3, options, bowl);
    EXPECT_EQ(result.evaluations,
              options.population * options.generations);
    for (const auto& point : result.history) {
        for (double gene : point.genes) {
            EXPECT_GE(gene, 0.0);
            EXPECT_LT(gene, 1.0);
        }
    }
}

TEST(RandomOptimizerTest, ConvergesRoughly)
{
    OptimizerOptions options = small_budget();
    options.population = 32;
    options.generations = 32;
    const auto result = optimize_random(2, options, bowl);
    EXPECT_LT(result.best_score, 0.05);
}

TEST(GridOptimizerTest, CoversCornersAndCenter)
{
    OptimizerOptions options;
    options.population = 9;
    options.generations = 1;  // budget 9 -> 3x3 grid on 2 genes
    const auto result = optimize_grid(2, options, bowl);
    EXPECT_EQ(result.evaluations, 9);
    bool corner = false, center = false;
    for (const auto& point : result.history) {
        if (point.genes[0] == 0.0 && point.genes[1] == 0.0)
            corner = true;
        if (point.genes[0] == 0.5 && point.genes[1] == 0.5)
            center = true;
    }
    EXPECT_TRUE(corner);
    EXPECT_TRUE(center);
}

TEST(GridOptimizerTest, OneDimensionalSweep)
{
    OptimizerOptions options;
    options.population = 11;
    options.generations = 1;
    const auto result = optimize_grid(
        1, options,
        [](std::size_t, const std::vector<double>& g) { return g[0]; });
    EXPECT_EQ(result.evaluations, 11);
    EXPECT_DOUBLE_EQ(result.best_genes[0], 0.0);
}

TEST(OptimizeDispatchTest, AllStrategiesReachTheBowl)
{
    OptimizerOptions options = small_budget();
    options.population = 24;
    options.generations = 24;
    for (auto strategy :
         {OptimizerStrategy::kGenetic, OptimizerStrategy::kRandom,
          OptimizerStrategy::kGrid}) {
        const auto result = optimize(strategy, 2, options, bowl);
        EXPECT_LT(result.best_score, 0.05) << to_string(strategy);
    }
}

TEST(GeneticOptimizerTest, WarmStartSeedIsEvaluatedFirst)
{
    OptimizerOptions options = small_budget();
    options.seed_genes.push_back({0.3, 0.7});  // the exact optimum
    const auto result = optimize_genetic(2, options, bowl);
    ASSERT_FALSE(result.history.empty());
    EXPECT_EQ(result.history.front().genes,
              (std::vector<double>{0.3, 0.7}));
    // The optimum was handed in, so the best score is (near) zero.
    EXPECT_LT(result.best_score, 1e-12);
}

TEST(GeneticOptimizerTest, WarmStartNeverWorseThanSeed)
{
    // Even a bad seed cannot make the result worse than random search
    // finds, and the seed's own score bounds the result from above.
    OptimizerOptions options = small_budget();
    options.seed_genes.push_back({1.0, 0.0});
    const auto result = optimize_genetic(2, options, bowl);
    EXPECT_LE(result.best_score, bowl(0, {1.0, 0.0}));
}

TEST(GeneticOptimizerDeathTest, WrongSizedSeedIsFatal)
{
    OptimizerOptions options = small_budget();
    options.seed_genes.push_back({0.5});  // 1 gene for a 2-gene problem
    EXPECT_EXIT(optimize_genetic(2, options, bowl),
                ::testing::ExitedWithCode(1), "seed individual");
}

TEST(OptimizerDeathTest, BadOptionsAreFatal)
{
    OptimizerOptions options;
    options.population = 1;
    EXPECT_EXIT(optimize_genetic(2, options, bowl),
                ::testing::ExitedWithCode(1), "population");
    options = OptimizerOptions{};
    options.elitism = 99;
    EXPECT_EXIT(optimize_genetic(2, options, bowl),
                ::testing::ExitedWithCode(1), "elitism");
    EXPECT_EXIT(optimize_genetic(0, OptimizerOptions{}, bowl),
                ::testing::ExitedWithCode(1), "gene_count");
}

}  // namespace
}  // namespace chrysalis::search
