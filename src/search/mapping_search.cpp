#include "search/mapping_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "dataflow/tiling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::search {

namespace {

/// Eq. 8 budget terms of one environment. Both are fixed for a whole
/// search, so they are computed once per environment, not per candidate.
struct CycleBudget {
    double store_j = 0.0;  ///< sim::cycle_store_energy
    double p_eff_w = 0.0;  ///< sim::effective_power; may be negative
};

/// Worst-case Eq. 8 overshoot of a layer's tiles across all environments;
/// 0 when the layer is feasible everywhere.
double
layer_violation(const dataflow::LayerCost& cost,
                const std::vector<CycleBudget>& budgets)
{
    if (!cost.feasible)
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (const auto& cycle : budgets) {
        if (cycle.p_eff_w <= 0.0)
            return std::numeric_limits<double>::infinity();
        // The expression of sim::cycle_budget, on the hoisted terms.
        const double budget = cycle.store_j +
                              std::max(0.0, cycle.p_eff_w) *
                                  cost.tile_time_s();
        worst = std::max(worst, cost.tile_energy_j() - budget);
    }
    return std::max(0.0, worst);
}

/// True when \p a and \p b cost the same under every mapping: the cost
/// model reads a layer's kind, loop extents, stride and input size, never
/// its name.
bool
same_shape(const dnn::Layer& a, const dnn::Layer& b)
{
    return a.kind == b.kind && a.dims == b.dims && a.stride == b.stride &&
           a.in_h == b.in_h && a.in_w == b.in_w;
}

/// Scores one (layer, mapping): first by feasibility, then by energy.
struct ScoredMapping {
    dataflow::LayerMapping mapping;
    dataflow::LayerCost cost;
    double violation = std::numeric_limits<double>::infinity();

    bool
    better_than(const ScoredMapping& other) const
    {
        // Feasible dominates infeasible; then lower violation; then lower
        // energy; then fewer tiles (less checkpoint pressure headroom).
        if ((violation == 0.0) != (other.violation == 0.0))
            return violation == 0.0;
        if (violation != other.violation)
            return violation < other.violation;
        const double mine = cost.total_energy_j();
        const double theirs = other.cost.total_energy_j();
        if (mine != theirs)
            return mine < theirs;
        return cost.n_tile < other.cost.n_tile;
    }
};

ScoredMapping
score_mapping(const dnn::Layer& layer, const dataflow::LayerMapping& mapping,
              const dataflow::CostParams& params,
              const std::vector<CycleBudget>& budgets)
{
    ScoredMapping scored;
    scored.mapping = mapping;
    scored.cost = dataflow::analyze_layer(layer, mapping, params);
    scored.violation = layer_violation(scored.cost, budgets);
    return scored;
}

ScoredMapping
search_layer_exhaustive(const dnn::Layer& layer,
                        const std::vector<dataflow::Dataflow>& dataflows,
                        const dataflow::CostParams& params,
                        const std::vector<CycleBudget>& budgets,
                        const MappingSearchOptions& options,
                        std::int64_t& evaluations)
{
    const auto candidates = dataflow::enumerate_mappings(
        layer, dataflows, options.max_candidates_per_dim);
    ScoredMapping best;
    bool first = true;
    for (const auto& mapping : candidates) {
        ScoredMapping scored = score_mapping(layer, mapping, params, budgets);
        ++evaluations;
        if (first || scored.better_than(best)) {
            best = std::move(scored);
            first = false;
        }
    }
    if (first)
        panic("search_layer_exhaustive: no candidates for ", layer.name);
    return best;
}

ScoredMapping
search_layer_genetic(const dnn::Layer& layer,
                     const std::vector<dataflow::Dataflow>& dataflows,
                     const dataflow::CostParams& params,
                     const std::vector<CycleBudget>& budgets,
                     const MappingSearchOptions& options,
                     std::int64_t& evaluations, Rng& rng)
{
    // GAMMA-style: individuals are (dataflow index, chunk-count exponents).
    const auto random_mapping = [&]() {
        dataflow::LayerMapping mapping;
        mapping.dataflow = dataflows[static_cast<std::size_t>(
            rng.uniform_int(0,
                            static_cast<std::int64_t>(dataflows.size()) -
                                1))];
        mapping.tiles_k = rng.uniform_int(1, layer.dims.k);
        mapping.tiles_y = rng.uniform_int(1, layer.dims.y);
        mapping.tiles_n = rng.uniform_int(1, layer.dims.n);
        return mapping;
    };
    const auto mutate = [&](dataflow::LayerMapping mapping) {
        switch (rng.uniform_int(0, 3)) {
          case 0:
            mapping.dataflow = dataflows[static_cast<std::size_t>(
                rng.uniform_int(
                    0, static_cast<std::int64_t>(dataflows.size()) - 1))];
            break;
          case 1:
            mapping.tiles_k = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       std::llround(static_cast<double>(mapping.tiles_k) *
                                    rng.uniform(0.5, 2.0))));
            break;
          case 2:
            mapping.tiles_y = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       std::llround(static_cast<double>(mapping.tiles_y) *
                                    rng.uniform(0.5, 2.0))));
            break;
          default:
            mapping.tiles_n = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       std::llround(static_cast<double>(mapping.tiles_n) *
                                    rng.uniform(0.5, 2.0))));
            break;
        }
        mapping.clamp_to(layer);
        return mapping;
    };

    std::vector<ScoredMapping> population;
    population.reserve(static_cast<std::size_t>(options.ga_population));
    for (int i = 0; i < options.ga_population; ++i) {
        population.push_back(
            score_mapping(layer, random_mapping(), params, budgets));
        ++evaluations;
    }
    const auto better = [](const ScoredMapping& a, const ScoredMapping& b) {
        return a.better_than(b);
    };
    for (int gen = 1; gen < options.ga_generations; ++gen) {
        std::sort(population.begin(), population.end(), better);
        const std::size_t keep = population.size() / 2;
        for (std::size_t i = keep; i < population.size(); ++i) {
            const auto& parent =
                population[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(keep) - 1))];
            population[i] =
                score_mapping(layer, mutate(parent.mapping), params, budgets);
            ++evaluations;
        }
    }
    return *std::min_element(population.begin(), population.end(), better);
}

}  // namespace

MappingSearchResult
search_mappings(const dnn::Model& model,
                const hw::InferenceHardware& hardware,
                const std::vector<sim::EnergyEnv>& envs,
                const MappingSearchOptions& options)
{
    if (envs.empty())
        fatal("search_mappings: at least one energy environment required");
    OBS_SPAN("search/inner");

    const dataflow::CostParams params = hardware.cost_params();
    const auto dataflows = hardware.supported_dataflows();
    if (dataflows.empty())
        panic("search_mappings: hardware supports no dataflows");

    std::vector<CycleBudget> budgets;
    budgets.reserve(envs.size());
    for (const auto& env : envs)
        budgets.push_back(
            {sim::cycle_store_energy(env), sim::effective_power(env)});

    Rng rng(options.seed);
    MappingSearchResult result;
    result.mappings.reserve(model.layer_count());
    result.feasible = true;

    // Exhaustive search is a pure function of (layer shape, CostParams,
    // environments), and the last two are fixed within this call: each
    // distinct shape is searched once and its best mapping reused. The
    // genetic strategy draws every layer from one Rng stream, so it
    // searches each layer.
    std::vector<std::pair<const dnn::Layer*, ScoredMapping>> searched;

    for (std::size_t i = 0; i < model.layer_count(); ++i) {
        const dnn::Layer& layer = model.layer(i);
        ScoredMapping best;
        if (options.strategy ==
            MappingSearchOptions::Strategy::kExhaustive) {
            const auto seen = std::find_if(
                searched.begin(), searched.end(), [&](const auto& entry) {
                    return same_shape(*entry.first, layer);
                });
            if (seen != searched.end()) {
                best = seen->second;
            } else {
                best = search_layer_exhaustive(layer, dataflows, params,
                                               budgets, options,
                                               result.evaluations);
                searched.emplace_back(&layer, best);
            }
        } else {
            best = search_layer_genetic(layer, dataflows, params, budgets,
                                        options, result.evaluations, rng);
        }
        if (best.violation > 0.0) {
            result.feasible = false;
            result.violation_j += std::isfinite(best.violation)
                ? best.violation
                : 1e6;
            if (!result.failure) {
                result.failure = fault::make_failure(
                    fault::FailureCode::kTileExceedsCycle,
                    "layer " + std::to_string(i) +
                        ": no mapping satisfies Eq. 8 in every "
                        "environment");
            }
        }
        result.mappings.push_back(best.mapping);
    }

    result.cost = dataflow::analyze_model(model, result.mappings, params);

    // NVM capacity: weights, the worst inter-layer activation pair and
    // the largest checkpoint must all reside in non-volatile storage.
    const std::int64_t capacity = hardware.nvm_capacity_bytes();
    if (capacity > 0) {
        std::int64_t peak_ckpt = 0;
        for (const auto& layer : result.cost.layers)
            peak_ckpt = std::max(peak_ckpt, layer.ckpt_bytes);
        const std::int64_t footprint = model.total_weight_bytes() +
                                       model.peak_activation_bytes() +
                                       peak_ckpt;
        if (footprint > capacity) {
            result.feasible = false;
            // NVM capacity is the structural failure: it overrides any
            // Eq. 8 note because no tiling can fix a model that does not
            // fit non-volatile storage.
            result.failure = fault::make_failure(
                fault::FailureCode::kNvmCapacityExceeded,
                "model footprint " + std::to_string(footprint) +
                    " B exceeds NVM capacity " + std::to_string(capacity) +
                    " B");
        }
    }
    if (obs::MetricsRegistry* registry = obs::metrics()) {
        registry->counter("search/inner/searches").add(1);
        registry->counter("search/inner/evaluations")
            .add(static_cast<std::uint64_t>(result.evaluations));
    }
    return result;
}

}  // namespace chrysalis::search
