#include "search/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace chrysalis::search {

bool
bi_dominates(const std::array<double, 2>& a, const std::array<double, 2>& b)
{
    return a[0] <= b[0] && a[1] <= b[1] &&
           (a[0] < b[0] || a[1] < b[1]);
}

std::vector<int>
non_dominated_ranks(const std::vector<std::array<double, 2>>& objectives)
{
    const std::size_t n = objectives.size();
    std::vector<int> ranks(n, -1);
    std::vector<int> domination_count(n, 0);
    std::vector<std::vector<std::size_t>> dominated(n);

    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (bi_dominates(objectives[i], objectives[j])) {
                dominated[i].push_back(j);
                ++domination_count[j];
            } else if (bi_dominates(objectives[j], objectives[i])) {
                dominated[j].push_back(i);
                ++domination_count[i];
            }
        }
    }

    std::vector<std::size_t> current;
    for (std::size_t i = 0; i < n; ++i) {
        if (domination_count[i] == 0) {
            ranks[i] = 0;
            current.push_back(i);
        }
    }
    int rank = 0;
    while (!current.empty()) {
        std::vector<std::size_t> next;
        for (std::size_t i : current) {
            for (std::size_t j : dominated[i]) {
                if (--domination_count[j] == 0) {
                    ranks[j] = rank + 1;
                    next.push_back(j);
                }
            }
        }
        current = std::move(next);
        ++rank;
    }
    return ranks;
}

std::vector<double>
crowding_distances(const std::vector<std::array<double, 2>>& objectives)
{
    const std::size_t n = objectives.size();
    std::vector<double> distance(n, 0.0);
    if (n <= 2) {
        std::fill(distance.begin(), distance.end(),
                  std::numeric_limits<double>::infinity());
        return distance;
    }
    for (int objective = 0; objective < 2; ++objective) {
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return objectives[a][static_cast<std::size_t>(
                                 objective)] <
                             objectives[b][static_cast<std::size_t>(
                                 objective)];
                  });
        const double span =
            objectives[order.back()][static_cast<std::size_t>(objective)] -
            objectives[order.front()][static_cast<std::size_t>(objective)];
        distance[order.front()] =
            std::numeric_limits<double>::infinity();
        distance[order.back()] = std::numeric_limits<double>::infinity();
        if (span <= 0.0)
            continue;
        for (std::size_t k = 1; k + 1 < n; ++k) {
            const double gap =
                objectives[order[k + 1]][static_cast<std::size_t>(
                    objective)] -
                objectives[order[k - 1]][static_cast<std::size_t>(
                    objective)];
            distance[order[k]] += gap / span;
        }
    }
    return distance;
}

Nsga2Result
optimize_nsga2(int gene_count, const OptimizerOptions& opts,
               const IndexedBiFitnessFn& fitness)
{
    if (gene_count < 1)
        fatal("optimize_nsga2: gene_count must be >= 1");
    if (opts.population < 4)
        fatal("optimize_nsga2: population must be >= 4");
    if (opts.generations < 1)
        fatal("optimize_nsga2: generations must be >= 1");
    if (opts.threads < 0)
        fatal("optimize_nsga2: threads must be >= 0");

    Rng rng(opts.seed);
    runtime::ThreadPool pool(opts.threads);
    Nsga2Result result;

    struct Individual {
        std::vector<double> genes;
        std::array<double, 2> objectives{0.0, 0.0};
        int rank = 0;
        double crowding = 0.0;
    };

    // Scores one pre-drawn genome batch on the pool; history and the
    // returned individuals are reduced in index order, so results are
    // identical at any thread count (see optimizer.cpp).
    const auto evaluate_batch =
        [&](std::vector<std::vector<double>> genomes) {
            const std::size_t base =
                static_cast<std::size_t>(result.evaluations);
            const auto objectives = pool.parallel_map(
                genomes.size(), [&](std::size_t i) {
                    return fitness(base + i, genomes[i]);
                });
            std::vector<Individual> individuals;
            individuals.reserve(genomes.size());
            for (std::size_t i = 0; i < genomes.size(); ++i) {
                ++result.evaluations;
                result.history.push_back({genomes[i], objectives[i]});
                individuals.push_back(
                    {std::move(genomes[i]), objectives[i], 0, 0.0});
            }
            return individuals;
        };

    const auto random_genes = [&]() {
        std::vector<double> genes(static_cast<std::size_t>(gene_count));
        for (auto& gene : genes)
            gene = rng.uniform();
        return genes;
    };

    // Initial population (warm-start seeds honoured).
    std::vector<std::vector<double>> initial;
    initial.reserve(static_cast<std::size_t>(opts.population));
    for (int i = 0; i < opts.population; ++i) {
        if (static_cast<std::size_t>(i) < opts.seed_genes.size()) {
            if (opts.seed_genes[static_cast<std::size_t>(i)].size() !=
                static_cast<std::size_t>(gene_count)) {
                fatal("optimize_nsga2: seed individual has wrong gene "
                      "count");
            }
            initial.push_back(
                opts.seed_genes[static_cast<std::size_t>(i)]);
        } else {
            initial.push_back(random_genes());
        }
    }
    std::vector<Individual> population =
        evaluate_batch(std::move(initial));

    const auto assign_ranks = [&](std::vector<Individual>& group) {
        std::vector<std::array<double, 2>> objectives;
        objectives.reserve(group.size());
        for (const auto& individual : group)
            objectives.push_back(individual.objectives);
        const auto ranks = non_dominated_ranks(objectives);
        for (std::size_t i = 0; i < group.size(); ++i)
            group[i].rank = ranks[i];
        // Crowding per front.
        int max_rank = 0;
        for (int rank : ranks)
            max_rank = std::max(max_rank, rank);
        for (int front = 0; front <= max_rank; ++front) {
            std::vector<std::size_t> members;
            std::vector<std::array<double, 2>> member_objectives;
            for (std::size_t i = 0; i < group.size(); ++i) {
                if (group[i].rank == front) {
                    members.push_back(i);
                    member_objectives.push_back(group[i].objectives);
                }
            }
            const auto distances = crowding_distances(member_objectives);
            for (std::size_t k = 0; k < members.size(); ++k)
                group[members[k]].crowding = distances[k];
        }
    };
    assign_ranks(population);

    const auto better = [](const Individual& a, const Individual& b) {
        if (a.rank != b.rank)
            return a.rank < b.rank;
        return a.crowding > b.crowding;
    };
    const auto tournament = [&]() -> const Individual& {
        const auto& a = population[static_cast<std::size_t>(
            rng.uniform_int(0, opts.population - 1))];
        const auto& b = population[static_cast<std::size_t>(
            rng.uniform_int(0, opts.population - 1))];
        return better(a, b) ? a : b;
    };

    for (int gen = 1; gen < opts.generations; ++gen) {
        OBS_SPAN("nsga2/generation");
        if (obs::MetricsRegistry* registry = obs::metrics())
            registry->counter("search/nsga2/generations").add(1);
        // Offspring via crossover + mutation: all genomes are drawn
        // serially (variation only reads the scored parent population),
        // then the batch is evaluated in parallel.
        std::vector<std::vector<double>> offspring_genomes;
        offspring_genomes.reserve(population.size());
        while (offspring_genomes.size() < population.size()) {
            std::vector<double> genes = tournament().genes;
            if (rng.bernoulli(opts.crossover_rate)) {
                const auto& other = tournament().genes;
                for (std::size_t g = 0; g < genes.size(); ++g) {
                    if (rng.bernoulli(0.5))
                        genes[g] = other[g];
                }
            }
            for (auto& gene : genes) {
                if (rng.bernoulli(opts.mutation_rate)) {
                    gene = clamp(gene + rng.gaussian(
                                            0.0, opts.mutation_sigma),
                                 0.0, 1.0);
                }
            }
            offspring_genomes.push_back(std::move(genes));
        }
        std::vector<Individual> offspring =
            evaluate_batch(std::move(offspring_genomes));

        // Environmental selection from the combined pool.
        std::vector<Individual> combined = std::move(population);
        combined.insert(combined.end(),
                        std::make_move_iterator(offspring.begin()),
                        std::make_move_iterator(offspring.end()));
        assign_ranks(combined);
        std::sort(combined.begin(), combined.end(), better);
        combined.resize(static_cast<std::size_t>(opts.population));
        population = std::move(combined);
        assign_ranks(population);
    }

    // Extract the final front, sorted by the first objective.
    std::vector<Individual> front_members;
    for (const auto& individual : population) {
        if (individual.rank == 0)
            front_members.push_back(individual);
    }
    std::sort(front_members.begin(), front_members.end(),
              [](const Individual& a, const Individual& b) {
                  return a.objectives[0] < b.objectives[0];
              });
    for (auto& individual : front_members) {
        result.front.push_back(
            {std::move(individual.genes), individual.objectives});
    }
    return result;
}

}  // namespace chrysalis::search
