#include "generator.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/string_utils.hpp"
#include "dnn/model_zoo.hpp"
#include "search/design_space.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRoundSeeds = 4096;
constexpr std::size_t kCheckedCases = 3;

std::uint64_t
mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    // splitmix64 finaliser over the three inputs.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
                      (stream + 0x632be59bd9b4e019ULL) * 0xbf58476d1ce4e5b9ULL ^
                      index * 0x94d049bb133111ebULL;
    z ^= z >> 30;
    z *= 0xbf58476d1ce4e5b9ULL;
    z ^= z >> 27;
    z *= 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z;
}

enum Stream : std::uint64_t { kRounds = 1, kChecks, kHot, kFresh, kPick };

/// A design point drawn from the continuous ranges of its design
/// space. The request type and model cycle through a fixed table by
/// \p position, so every seed sends the same mix. Types follow the
/// chrysalis_bench_load mix (60% eval_design_point, 25% eval_mapping,
/// 10% sim_step with its runs/step_s), with its 5% server_stats probes
/// sent as design points as its --chaos mode does, because stats
/// replies cannot be replayed for the output check: 65/25/10. Models
/// are the paper's small Table IV set on the existing space and its
/// large Table V set on the future space, each model equally often.
ServeRequest
design_request(std::uint64_t seed, std::uint64_t position, Rng& rng)
{
    const std::vector<std::string>& small = dnn::table4_workloads();
    const std::vector<std::string>& large = dnn::table5_workloads();
    constexpr std::uint64_t kTypeCycle = 20;
    const std::uint64_t model_count = small.size() + large.size();
    const std::uint64_t type_slot = position % kTypeCycle;
    const std::uint64_t model_slot = position / kTypeCycle % model_count;
    const bool is_large = model_slot >= small.size();
    const search::DesignSpace space = is_large
                                          ? search::DesignSpace::future_aut()
                                          : search::DesignSpace::existing_aut();
    ServeRequest request;
    request.type = type_slot < 13   ? "eval_design_point"
                   : type_slot < 18 ? "eval_mapping"
                                    : "sim_step";
    auto& p = request.params;
    p["model"] = is_large ? large[model_slot - small.size()]
                          : small[model_slot];
    p["space"] = is_large ? "future" : "existing";
    static const char* const kObjectives[] = {"latsp", "lat", "sp"};
    p["objective"] = kObjectives[rng.uniform_int(0, 2)];
    p["solar_cm2"] = format_double_17g(
        rng.uniform(space.solar_min_cm2, space.solar_max_cm2));
    p["capacitance_f"] =
        format_double_17g(rng.log_uniform(space.cap_min_f, space.cap_max_f));
    p["arch"] = rng.bernoulli(0.5) ? "eyeriss" : "tpu";
    p["n_pe"] = std::to_string(static_cast<std::int64_t>(rng.log_uniform(
        static_cast<double>(space.pe_min), static_cast<double>(space.pe_max))));
    p["cache_bytes"] = std::to_string(static_cast<std::int64_t>(
        rng.log_uniform(static_cast<double>(space.cache_min_bytes),
                        static_cast<double>(space.cache_max_bytes))));
    p["seed"] = std::to_string(seed % 1000 + 1);
    if (request.type == "sim_step") {
        p["runs"] = "1";
        p["step_s"] = "0.05";
    }
    return request;
}

}  // namespace

bool
runs_on_one_cpu(const std::string& workload)
{
    return workload != "campaign_resnet18";
}

CampaignPlan
make_campaign_plan(const std::string& workload, std::uint64_t seed)
{
    CampaignPlan plan;
    plan.workload = workload;
    core::CampaignSpec& spec = plan.spec;
    if (workload == "campaign_resnet18") {
        spec.model = "resnet18";
        spec.space = "future";
        spec.cases = 8;
        spec.population = 16;
        spec.generations = 8;
        plan.threads = 4;
    } else if (workload == "campaign_kws") {
        spec.model = "kws";
        spec.space = "existing";
        spec.cases = 16;
        spec.population = 24;
        spec.generations = 16;
        plan.threads = 1;
    } else if (workload == "dist_kws") {
        spec.model = "kws";
        spec.space = "existing";
        spec.cases = 192;
        spec.population = 12;
        spec.generations = 6;
        plan.workers = 2;
    } else {
        fatal("make_campaign_plan: unknown workload '", workload, "'");
    }
    plan.round_seeds.reserve(kRoundSeeds);
    for (std::size_t round = 0; round < kRoundSeeds; ++round)
        plan.round_seeds.push_back(mix(seed, kRounds, round) % 1000000 + 1);
    spec.seed = plan.round_seeds.front();
    spec.validate();

    Rng rng(mix(seed, kChecks, 0));
    while (plan.check_cases.size() < kCheckedCases) {
        const auto index = static_cast<std::size_t>(
            rng.uniform_int(0, spec.cases - 1));
        if (std::find(plan.check_cases.begin(), plan.check_cases.end(),
                      index) == plan.check_cases.end())
            plan.check_cases.push_back(index);
    }
    std::sort(plan.check_cases.begin(), plan.check_cases.end());
    return plan;
}

core::CampaignSpec
round_spec(const CampaignPlan& plan, std::size_t round)
{
    core::CampaignSpec spec = plan.spec;
    spec.seed = plan.round_seeds[round % plan.round_seeds.size()];
    return spec;
}

ServePlan
make_serve_plan(std::uint64_t seed)
{
    ServePlan plan;
    plan.seed = seed;
    return plan;
}

ServeRequest
hot_request(const ServePlan& plan, std::size_t slot)
{
    Rng rng(mix(plan.seed, kHot, slot));
    // 7 is coprime to the 20 x 8-entry mix table, so consecutive slots
    // walk the whole table.
    ServeRequest request = design_request(plan.seed, 7 * slot, rng);
    request.hot = true;
    return request;
}

ServeRequest
serve_request(const ServePlan& plan, std::uint64_t index)
{
    Rng pick(mix(plan.seed, kPick, index));
    if (pick.bernoulli(plan.hot_share)) {
        return hot_request(plan, static_cast<std::size_t>(pick.uniform_int(
                                     0, static_cast<std::int64_t>(
                                            plan.hot_count) - 1)));
    }
    Rng rng(mix(plan.seed, kFresh, index));
    return design_request(plan.seed, index, rng);
}

bool
generator_self_test()
{
    const auto same_plan = [](const CampaignPlan& a, const CampaignPlan& b) {
        return a.round_seeds == b.round_seeds &&
               a.check_cases == b.check_cases &&
               core::to_fields(a.spec) == core::to_fields(b.spec) &&
               a.threads == b.threads && a.workers == b.workers;
    };
    for (const char* workload :
         {"campaign_resnet18", "campaign_kws", "dist_kws"}) {
        if (!same_plan(make_campaign_plan(workload, 7),
                       make_campaign_plan(workload, 7))) {
            std::fprintf(stderr, "self-test failed: %s plan differs "
                                 "between two calls with one seed\n",
                         workload);
            return false;
        }
        if (same_plan(make_campaign_plan(workload, 7),
                      make_campaign_plan(workload, 8))) {
            std::fprintf(stderr, "self-test failed: %s plan ignores "
                                 "the seed\n", workload);
            return false;
        }
    }
    const ServePlan a = make_serve_plan(7);
    const ServePlan b = make_serve_plan(7);
    const ServePlan c = make_serve_plan(8);
    bool seed_matters = false;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const ServeRequest x = serve_request(a, i);
        const ServeRequest y = serve_request(b, i);
        if (x.type != y.type || x.params != y.params || x.hot != y.hot) {
            std::fprintf(stderr, "self-test failed: serve request %llu "
                                 "differs between two calls with one "
                                 "seed\n",
                         static_cast<unsigned long long>(i));
            return false;
        }
        if (serve_request(c, i).params != x.params)
            seed_matters = true;
    }
    if (!seed_matters)
        std::fprintf(stderr, "self-test failed: serve stream ignores "
                             "the seed\n");
    return seed_matters;
}

}  // namespace perfbench
