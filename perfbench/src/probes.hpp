/// \file
/// Layer probes of the traced run: the benchmark calls each layer's
/// public functions on the workload's own inputs and times every call
/// from its own code (candidate enumeration, cost kernel, Eq. 8 check,
/// mapping search, analytic evaluator, design evaluation, step
/// simulator, model zoo, thread pool), and the search rung of one
/// campaign case (explore and its fitness calls).

#ifndef CHRYSALIS_PERFBENCH_SRC_PROBES_HPP
#define CHRYSALIS_PERFBENCH_SRC_PROBES_HPP

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "common/stable_hash.hpp"
#include "core/campaign.hpp"
#include "search/bilevel_explorer.hpp"
#include "tracer.hpp"

namespace perfbench {

class LayerProbe
{
  public:
    explicit LayerProbe(Tracer& tracer) : tracer_(tracer) {}

    /// Mapping-search, analytic and evaluate timings of one design
    /// point under \p explorer's context, then the mapping search's
    /// parts (enumeration, cost kernel, Eq. 8 check, model cost) on the
    /// same design.
    void probe_design(const search::BiLevelExplorer& explorer,
                      const search::HwCandidate& candidate,
                      std::uint64_t group);

    /// Step-simulator replay (core::Chrysalis::validate, one run) of
    /// \p candidate when it is feasible; returns whether it ran.
    bool probe_simulate(const search::BiLevelExplorer& explorer,
                        const search::HwCandidate& candidate,
                        std::uint64_t group);

    void probe_make_model(const std::string& zoo_name);

    /// Case \p index of a campaign, rung by rung: core::run_campaign_case
    /// (the case), then explore() of the same search (its seed offset
    /// by the index as run_campaign offsets it) replayed call by call:
    /// explore wall, evaluations, memo hit ratio and the per-call
    /// fitness time; then probe_design on a sample of the distinct
    /// designs it evaluated and probe_simulate on its best design.
    void probe_case(const core::CampaignCase& campaign_case,
                    const search::ExplorerOptions& options,
                    std::size_t index);

    /// Spawns and joins a fresh runtime::ThreadPool with one batch.
    void probe_pool();

    /// Adds every probe metric and the design/mapping/case rung
    /// reconciliations.
    void report(Report& report) const;

  private:
    Tracer& tracer_;
    // Per probed design.
    std::vector<double> analyze_ns_;  ///< per analyze_layer call
    std::vector<double> eq8_ns_;      ///< per candidate, all envs
    std::vector<double> select_ns_;   ///< per candidate
    std::vector<double> enumerate_us_;
    std::vector<double> analyze_model_us_;
    std::vector<double> mapping_search_us_;
    std::vector<double> mapping_children_us_;
    std::vector<double> analytic_ns_;
    std::vector<double> design_eval_us_;
    std::vector<double> design_children_us_;
    std::vector<double> simulate_us_;
    std::vector<double> make_model_us_;
    std::vector<double> pool_us_;
    std::vector<double> layer_evals_;
    std::int64_t designs_ = 0;
    std::int64_t feasible_ = 0;
    std::uint64_t layer_searches_ = 0;
    std::unordered_set<CacheKey, CacheKeyHash> shape_keys_;

    // Search rung (campaign-shaped workloads only).
    std::vector<double> case_ms_;
    std::vector<double> explore_ms_;
    std::vector<double> evals_per_case_;
    std::vector<double> fitness_us_;      ///< per call, hits included
    std::vector<double> fitness_total_ms_;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t cache_lookups_ = 0;
    double sink_ = 0.0;  ///< keeps timed results observable
};

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_PROBES_HPP
