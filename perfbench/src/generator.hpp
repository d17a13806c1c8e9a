/// \file
/// Workload inputs as a pure function of the seed argument. The program
/// under test only ever sees what these functions return.

#ifndef CHRYSALIS_PERFBENCH_SRC_GENERATOR_HPP
#define CHRYSALIS_PERFBENCH_SRC_GENERATOR_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/flat_json.hpp"
#include "core/campaign_spec.hpp"

namespace perfbench {

/// Whether \p workload runs with every thread on one CPU. The
/// closed loops whose threads hand work to each other many times per
/// case or request (campaign_kws's per-case GA pool, serve_mixed's
/// client/server round trips, dist_kws's lanes, workers and their GA
/// pools) then measure the CPU cost of the program, hand-offs included,
/// instead of how fast a shared host wakes an idle CPU. campaign_resnet18
/// keeps 4 CPUs: its case threads share nothing until the round ends.
bool runs_on_one_cpu(const std::string& workload);

/// Inputs of a campaign-shaped workload (campaign_resnet18, campaign_kws,
/// dist_kws): one spec per round, differing only in the search seed, so
/// no round re-asks a question an earlier round answered.
struct CampaignPlan {
    std::string workload;
    core::CampaignSpec spec;  ///< round 0; later rounds change `seed`
    int threads = 1;          ///< core::CampaignOptions::threads
    int workers = 0;          ///< in-process serve workers (dist only)
    /// Latency percentile of each slice whose median is reported as
    /// latency_tail_ms. A slice holds tens to about a hundred rounds, so
    /// higher percentiles would rest on one or two rounds each.
    double tail_q = 0.9;
    std::vector<std::uint64_t> round_seeds;
    /// Case indices of a round checked against the reference path.
    std::vector<std::size_t> check_cases;
};

CampaignPlan make_campaign_plan(const std::string& workload,
                                std::uint64_t seed);

/// The spec of round \p round (rounds past the seed list wrap).
core::CampaignSpec round_spec(const CampaignPlan& plan, std::size_t round);

/// Inputs of serve_mixed: a hot set that fits the response memo, and an
/// unbounded stream mixing hot repeats with fresh points drawn from
/// continuous ranges.
struct ServePlan {
    std::uint64_t seed = 1;
    std::size_t hot_count = 512;
    double hot_share = 0.5;
    std::size_t memo_capacity = 4096;  ///< serve::ServerOptions default
    int server_threads = 2;
    int clients = 2;
    double tail_q = 0.99;  ///< see CampaignPlan::tail_q
};

struct ServeRequest {
    std::string type;  ///< eval_design_point | eval_mapping | sim_step
    FlatJsonFields params;
    bool hot = false;
};

ServePlan make_serve_plan(std::uint64_t seed);

/// Request \p index of the stream (client c sends indices c, c+clients,
/// ...).
ServeRequest serve_request(const ServePlan& plan, std::uint64_t index);

/// Member \p slot of the hot set.
ServeRequest hot_request(const ServePlan& plan, std::size_t slot);

/// Two calls with one seed must give the same inputs, and two seeds
/// different ones; prints the failure to stderr and returns false.
bool generator_self_test();

}  // namespace perfbench

#endif  // CHRYSALIS_PERFBENCH_SRC_GENERATOR_HPP
