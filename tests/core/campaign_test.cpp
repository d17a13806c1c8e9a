/// \file
/// Tests for the batch campaign runner and its CSV export.

#include "core/campaign.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_utils.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "runtime/thread_pool.hpp"

namespace chrysalis::core {
namespace {

search::ExplorerOptions
small_options()
{
    search::ExplorerOptions options;
    options.outer.population = 8;
    options.outer.generations = 4;
    options.outer.seed = 3;
    options.inner.max_candidates_per_dim = 4;
    return options;
}

std::vector<CampaignCase>
two_cases()
{
    std::vector<CampaignCase> cases;
    cases.push_back({"conv-latsp", dnn::make_simple_conv(),
                     search::DesignSpace::existing_aut(),
                     {search::ObjectiveKind::kLatSp, 0.0, 0.0}});
    cases.push_back({"kws-lat", dnn::make_kws_mlp(),
                     search::DesignSpace::existing_aut(),
                     {search::ObjectiveKind::kLatency, 10.0, 0.0}});
    return cases;
}

TEST(CampaignTest, RunsEveryCase)
{
    const CampaignResult result =
        run_campaign(two_cases(), small_options());
    ASSERT_EQ(result.entries.size(), 2u);
    EXPECT_EQ(result.entries[0].label, "conv-latsp");
    EXPECT_EQ(result.entries[0].objective_label, "lat*sp");
    EXPECT_EQ(result.entries[1].objective_label, "lat");
    for (const auto& entry : result.entries) {
        EXPECT_TRUE(entry.solution.feasible) << entry.label;
        EXPECT_GE(entry.wall_time_s, 0.0);
    }
}

TEST(CampaignTest, EntryLookup)
{
    const CampaignResult result =
        run_campaign(two_cases(), small_options());
    EXPECT_TRUE(result.entry("kws-lat").solution.feasible);
    EXPECT_DEATH_IF_SUPPORTED((void)result.entry("nope"), "");
}

TEST(CampaignTest, CasesAreDecorrelatedButReproducible)
{
    const auto a = run_campaign(two_cases(), small_options());
    const auto b = run_campaign(two_cases(), small_options());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.entries[i].solution.score,
                         b.entries[i].solution.score);
    }
}

TEST(CampaignTest, CsvHasHeaderAndOneRowPerCase)
{
    const CampaignResult result =
        run_campaign(two_cases(), small_options());
    std::ostringstream os;
    result.write_csv(os);
    const auto lines = split(trim(os.str()), '\n');
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("label,feasible,objective"),
              std::string::npos);
    EXPECT_NE(lines[1].find("conv-latsp,1,lat*sp"), std::string::npos);
    // Every row has the same number of fields as the header.
    const auto header_fields = split(lines[0], ',').size();
    for (std::size_t i = 1; i < lines.size(); ++i)
        EXPECT_EQ(split(lines[i], ',').size(), header_fields) << i;
}

std::string
deterministic_csv(const CampaignResult& result)
{
    std::ostringstream os;
    result.write_csv(os, CsvColumns::kDeterministic);
    return os.str();
}

TEST(CampaignTest, SerialRunsAreByteIdenticalIncludingMemoCounters)
{
    // The deterministic CSV carries the memo hit/miss counters, which
    // only repeat when each search runs on one thread: a serial campaign
    // and a batch of one (a worker's run_case micro-batch) must keep the
    // searches they run off any freshly built pool.
    CampaignSpec spec;
    spec.cases = 48;
    spec.population = 16;
    spec.generations = 8;
    const dnn::Model model = dnn::make_model(spec.model);
    const std::vector<CampaignCase> cases =
        build_campaign_cases(spec, model);
    std::unique_ptr<fault::FaultInjector> faults;
    const search::ExplorerOptions options =
        build_explorer_options(spec, faults);

    CampaignOptions serial;
    serial.threads = 1;
    const std::string first =
        deterministic_csv(run_campaign(cases, options, serial));
    EXPECT_EQ(deterministic_csv(run_campaign(cases, options, serial)),
              first);

    const auto batch_of_one = [&] {
        CampaignResult result;
        result.entries.resize(1);
        runtime::ThreadPool pool(0);
        pool.parallel_for(1, [&](std::size_t) {
            result.entries[0] = run_campaign_case(cases[5], options, 5);
        });
        return deterministic_csv(result);
    };
    EXPECT_EQ(batch_of_one(), batch_of_one());
}

TEST(CampaignDeathTest, EmptyCampaignIsFatal)
{
    EXPECT_EXIT(run_campaign({}, small_options()),
                ::testing::ExitedWithCode(1), "no cases");
}

}  // namespace
}  // namespace chrysalis::core
