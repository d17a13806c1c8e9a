/// \file
/// SW-level mapping search (the inner level of the bi-level strategy,
/// §III-C).
///
/// Given a model, an inference hardware configuration and one or more
/// energy environments, finds per-layer intermittent mappings (dataflow
/// taxonomy + InterTempMap chunk counts) minimizing total energy E_all —
/// which, by Eq. 7, also minimizes end-to-end latency — subject to the
/// per-cycle feasibility constraint E_tile <= E_available (Eq. 8) holding
/// in *every* supplied environment (the paper requires the system to run
/// in both the brighter and the darker environment).
///
/// Two strategies are provided: bounded exhaustive enumeration per layer
/// (layers are independent given the hardware and environments) and a
/// GAMMA-style per-layer genetic search for very large tiling spaces.
///
/// Each call does each piece of work once. The Eq. 8 budget terms
/// (E_store and P_eff of every environment) are computed up front, not
/// per candidate. The exhaustive strategy searches each distinct layer
/// shape (kind, loop extents, stride, input size; not the name) once and
/// gives repeated shapes the same mapping, which is exactly what a fresh
/// scan would return. The genetic strategy searches every layer, since
/// all layers draw from one seeded random stream.

#ifndef CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP
#define CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP

#include <cstdint>
#include <vector>

#include "dataflow/cost_model.hpp"
#include "dnn/model.hpp"
#include "fault/failure.hpp"
#include "hw/inference_hardware.hpp"
#include "sim/analytic_evaluator.hpp"

namespace chrysalis::search {

/// Controls for the SW-level search.
struct MappingSearchOptions {
    enum class Strategy { kExhaustive, kGenetic };

    Strategy strategy = Strategy::kExhaustive;
    std::size_t max_candidates_per_dim = 6;  ///< exhaustive bound
    int ga_population = 16;                  ///< genetic strategy only
    int ga_generations = 8;
    std::uint64_t seed = 1;
};

/// Result of the SW-level search.
struct MappingSearchResult {
    bool feasible = false;  ///< all layers satisfy Eq. 8 in all envs,
                            ///< and the model fits the hardware's NVM
    std::vector<dataflow::LayerMapping> mappings;  ///< one per layer
    dataflow::ModelCost cost;   ///< cost under the chosen mappings
    double violation_j = 0.0;   ///< total Eq. 8 overshoot when infeasible
    fault::SimFailure failure;  ///< why the search failed, when infeasible
    std::int64_t evaluations = 0;  ///< layer-cost evaluations performed;
                                   ///< exhaustive search counts a
                                   ///< repeated layer shape once
};

/// Runs the SW-level mapping search.
/// \param envs environments the design must run in (feasibility must hold
///        in each; typically the brighter and darker presets).
MappingSearchResult search_mappings(const dnn::Model& model,
                                    const hw::InferenceHardware& hardware,
                                    const std::vector<sim::EnergyEnv>& envs,
                                    const MappingSearchOptions& options);

}  // namespace chrysalis::search

#endif  // CHRYSALIS_SEARCH_MAPPING_SEARCH_HPP
