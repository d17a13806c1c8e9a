#include "search/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace chrysalis::search {

namespace {

void
check_inputs(int gene_count, const OptimizerOptions& opts)
{
    if (gene_count < 1)
        fatal("optimizer: gene_count must be >= 1, got ", gene_count);
    if (opts.population < 2)
        fatal("optimizer: population must be >= 2, got ", opts.population);
    if (opts.generations < 1)
        fatal("optimizer: generations must be >= 1, got ", opts.generations);
    if (opts.elitism < 0 || opts.elitism >= opts.population)
        fatal("optimizer: elitism must lie in [0, population), got ",
              opts.elitism);
    if (opts.tournament_size < 1 || opts.tournament_size > opts.population)
        fatal("optimizer: tournament size out of range");
    if (opts.threads < 0)
        fatal("optimizer: threads must be >= 0, got ", opts.threads);
}

std::vector<double>
random_genes(Rng& rng, int gene_count)
{
    std::vector<double> genes(static_cast<std::size_t>(gene_count));
    for (auto& gene : genes)
        gene = rng.uniform();
    return genes;
}

/// Evaluates one genome batch on the pool and folds it into the result.
///
/// Determinism: evaluation indices are assigned before the batch runs
/// (serial history order), the fitness calls are free to complete in any
/// thread order, and history/evaluations are reduced strictly in index
/// order afterwards — so any thread count produces the same result as
/// the serial loop this replaces.
std::vector<double>
evaluate_batch(runtime::ThreadPool& pool, const IndexedFitnessFn& fitness,
               const std::vector<std::vector<double>>& genomes,
               OptimizeResult& result)
{
    const std::size_t base = static_cast<std::size_t>(result.evaluations);
    std::vector<double> scores = pool.parallel_map(
        genomes.size(),
        [&](std::size_t i) { return fitness(base + i, genomes[i]); });
    for (std::size_t i = 0; i < genomes.size(); ++i) {
        ++result.evaluations;
        result.history.push_back({genomes[i], scores[i]});
    }
    return scores;
}

}  // namespace

std::string
to_string(OptimizerStrategy strategy)
{
    switch (strategy) {
      case OptimizerStrategy::kGenetic: return "ga";
      case OptimizerStrategy::kRandom: return "random";
      case OptimizerStrategy::kGrid: return "grid";
    }
    return "?";
}

OptimizeResult
optimize_genetic(int gene_count, const OptimizerOptions& opts,
                 const IndexedFitnessFn& fitness)
{
    check_inputs(gene_count, opts);
    Rng rng(opts.seed);
    runtime::ThreadPool pool(opts.threads);

    struct Individual {
        std::vector<double> genes;
        double score = 0.0;
    };

    OptimizeResult result;

    // Initial population: warm-start seeds first, then random fill. All
    // genomes are drawn before the batch is evaluated; the fitness never
    // touches the RNG, so the stream matches the historical interleaved
    // draw-evaluate loop exactly.
    std::vector<Individual> population(
        static_cast<std::size_t>(opts.population));

    // Per-generation fitness summary. Scores are reduced in index order
    // (see evaluate_batch), so these observations are schedule-invariant
    // and the histograms land in the stable report section.
    const auto publish_generation = [&population] {
        obs::MetricsRegistry* registry = obs::metrics();
        if (registry == nullptr || population.empty())
            return;
        registry->counter("search/ga/generations").add(1);
        double best = population.front().score;
        double sum = 0.0;
        for (const auto& individual : population) {
            best = std::min(best, individual.score);
            sum += individual.score;
        }
        registry
            ->histogram("search/ga/gen_best_score", obs::decade_bounds())
            .record(best);
        registry
            ->histogram("search/ga/gen_mean_score", obs::decade_bounds())
            .record(sum / static_cast<double>(population.size()));
    };

    {
        OBS_SPAN("ga/generation");
        std::vector<std::vector<double>> genomes;
        genomes.reserve(population.size());
        for (std::size_t i = 0; i < population.size(); ++i) {
            if (i < opts.seed_genes.size()) {
                if (opts.seed_genes[i].size() !=
                    static_cast<std::size_t>(gene_count)) {
                    fatal("optimizer: seed individual has ",
                          opts.seed_genes[i].size(), " genes, expected ",
                          gene_count);
                }
                genomes.push_back(opts.seed_genes[i]);
            } else {
                genomes.push_back(random_genes(rng, gene_count));
            }
        }
        const auto scores = evaluate_batch(pool, fitness, genomes, result);
        for (std::size_t i = 0; i < population.size(); ++i) {
            population[i].genes = std::move(genomes[i]);
            population[i].score = scores[i];
        }
        publish_generation();
    }

    const auto by_score = [](const Individual& a, const Individual& b) {
        return a.score < b.score;
    };
    const auto tournament = [&]() -> const Individual& {
        const Individual* best = nullptr;
        for (int i = 0; i < opts.tournament_size; ++i) {
            const auto& contender = population[static_cast<std::size_t>(
                rng.uniform_int(0, opts.population - 1))];
            if (best == nullptr || contender.score < best->score)
                best = &contender;
        }
        return *best;
    };

    for (int gen = 1; gen < opts.generations; ++gen) {
        OBS_SPAN("ga/generation");
        std::sort(population.begin(), population.end(), by_score);
        std::vector<Individual> next;
        next.reserve(population.size());
        for (int e = 0; e < opts.elitism; ++e)
            next.push_back(population[static_cast<std::size_t>(e)]);

        // Variation draws all offspring genomes serially (selection only
        // needs the already-scored parent population), then the batch is
        // scored in parallel.
        std::vector<std::vector<double>> offspring;
        offspring.reserve(population.size() - next.size());
        while (next.size() + offspring.size() < population.size()) {
            const Individual& parent_a = tournament();
            const Individual& parent_b = tournament();
            std::vector<double> genes = parent_a.genes;
            if (rng.bernoulli(opts.crossover_rate)) {
                // Uniform crossover.
                for (std::size_t g = 0; g < genes.size(); ++g) {
                    if (rng.bernoulli(0.5))
                        genes[g] = parent_b.genes[g];
                }
            }
            for (auto& gene : genes) {
                if (rng.bernoulli(opts.mutation_rate)) {
                    gene = clamp(gene + rng.gaussian(0.0,
                                                     opts.mutation_sigma),
                                 0.0, 1.0);
                }
            }
            offspring.push_back(std::move(genes));
        }
        const auto scores =
            evaluate_batch(pool, fitness, offspring, result);
        for (std::size_t i = 0; i < offspring.size(); ++i)
            next.push_back({std::move(offspring[i]), scores[i]});
        population = std::move(next);
        publish_generation();
    }

    const auto best = std::min_element(population.begin(), population.end(),
                                       by_score);
    result.best_genes = best->genes;
    result.best_score = best->score;
    // The elite may have been superseded by a historical point if the last
    // generation regressed; take the global best from the history.
    for (const auto& point : result.history) {
        if (point.score < result.best_score) {
            result.best_score = point.score;
            result.best_genes = point.genes;
        }
    }
    return result;
}

OptimizeResult
optimize_random(int gene_count, const OptimizerOptions& opts,
                const IndexedFitnessFn& fitness)
{
    check_inputs(gene_count, opts);
    Rng rng(opts.seed);
    runtime::ThreadPool pool(opts.threads);
    OptimizeResult result;
    result.best_score = 0.0;
    const int budget = opts.population * opts.generations;

    std::vector<std::vector<double>> genomes;
    genomes.reserve(static_cast<std::size_t>(budget));
    for (int i = 0; i < budget; ++i)
        genomes.push_back(random_genes(rng, gene_count));
    const auto scores = evaluate_batch(pool, fitness, genomes, result);

    for (std::size_t i = 0; i < genomes.size(); ++i) {
        if (i == 0 || scores[i] < result.best_score) {
            result.best_score = scores[i];
            result.best_genes = std::move(genomes[i]);
        }
    }
    return result;
}

OptimizeResult
optimize_grid(int gene_count, const OptimizerOptions& opts,
              const IndexedFitnessFn& fitness)
{
    check_inputs(gene_count, opts);
    runtime::ThreadPool pool(opts.threads);
    const int budget = opts.population * opts.generations;
    const int resolution = std::max(
        2, static_cast<int>(std::floor(std::pow(
               static_cast<double>(budget),
               1.0 / static_cast<double>(gene_count)))));

    OptimizeResult result;
    std::vector<std::vector<double>> genomes;
    std::vector<int> index(static_cast<std::size_t>(gene_count), 0);
    while (true) {
        std::vector<double> genes(static_cast<std::size_t>(gene_count));
        for (std::size_t g = 0; g < genes.size(); ++g) {
            genes[g] = static_cast<double>(index[g]) /
                       static_cast<double>(resolution - 1);
        }
        genomes.push_back(std::move(genes));
        // Odometer increment.
        std::size_t g = 0;
        while (g < index.size()) {
            if (++index[g] < resolution)
                break;
            index[g] = 0;
            ++g;
        }
        if (g == index.size())
            break;
    }

    const auto scores = evaluate_batch(pool, fitness, genomes, result);
    for (std::size_t i = 0; i < genomes.size(); ++i) {
        if (i == 0 || scores[i] < result.best_score) {
            result.best_score = scores[i];
            result.best_genes = genomes[i];
        }
    }
    return result;
}

OptimizeResult
optimize(OptimizerStrategy strategy, int gene_count,
         const OptimizerOptions& opts, const IndexedFitnessFn& fitness)
{
    switch (strategy) {
      case OptimizerStrategy::kGenetic:
        return optimize_genetic(gene_count, opts, fitness);
      case OptimizerStrategy::kRandom:
        return optimize_random(gene_count, opts, fitness);
      case OptimizerStrategy::kGrid:
        return optimize_grid(gene_count, opts, fitness);
    }
    panic("optimize: invalid strategy");
}

}  // namespace chrysalis::search
