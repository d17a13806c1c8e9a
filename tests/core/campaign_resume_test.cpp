/// \file
/// Tests for campaign resilience: the JSONL result journal, resume after
/// a mid-run kill (byte-identical CSV, completed cases not re-run) and
/// crash isolation of misbehaving cases.

#include "core/campaign_journal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/string_utils.hpp"
#include "dnn/model_zoo.hpp"

namespace chrysalis::core {
namespace {

search::ExplorerOptions
small_options(std::uint64_t seed = 3)
{
    search::ExplorerOptions options;
    options.outer.population = 8;
    options.outer.generations = 4;
    options.outer.seed = seed;
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

/// Fresh journal path in the test temp dir (removed up front so reruns
/// of the test binary never see a stale file).
std::string
journal_path(const char* name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

std::string
deterministic_csv(const CampaignResult& result)
{
    std::ostringstream os;
    result.write_csv(os, CsvColumns::kDeterministic);
    return os.str();
}

TEST(CampaignJournalTest, RecordRoundTripsThroughJson)
{
    JournalRecord record;
    record.key = "00ff00ff00ff00ff00ff00ff00ff00ff";
    record.label = "tricky \"label\"\nwith,commas\\and\tescapes";
    record.objective_label = "lat*sp";
    record.feasible = true;
    record.family = 1;
    record.solar_cm2 = 1.0 / 3.0;
    record.capacitance_f = 4.7e-300;
    record.arch = 1;
    record.n_pe = 168;
    record.cache_bytes = 2048;
    record.mean_latency_s = 0.1234567890123456789;
    record.lat_sp = 1e300;
    record.score = -0.0;
    record.evaluations = 1234567890123LL;
    record.cache_hits = 17;
    record.cache_misses = 19;
    record.search_wall_time_s = 2.5;
    record.wall_time_s = 3.25;
    record.failure_code = "timeout";
    record.failure_detail = "after 300000 s";
    record.attempts = 2;

    // The current encoder's line, and the same record as journals
    // spelled it before the journal line shared the run_case reply
    // codec (wall times after the cache counters): old journals must
    // still resume.
    const std::string parent_order =
        R"({"key":"00ff00ff00ff00ff00ff00ff00ff00ff",)"
        R"("label":"tricky \"label\"\nwith,commas\\and\tescapes",)"
        R"("objective":"lat*sp","feasible":1,"family":1,)"
        R"("solar_cm2":0.33333333333333331,"capacitance_f":4.7e-300,)"
        R"("arch":1,"n_pe":168,"cache_bytes":2048,)"
        R"("mean_latency_s":0.12345678901234568,)"
        R"("lat_sp":1.0000000000000001e+300,"score":-0,)"
        R"("evaluations":1234567890123,"cache_hits":17,"cache_misses":19,)"
        R"("cache_evictions":0,"search_wall_time_s":2.5,"wall_time_s":3.25,)"
        R"("failure_code":"timeout","failure_detail":"after 300000 s",)"
        R"("attempts":2})";
    ASSERT_NE(parent_order, to_json_line(record));

    for (const std::string& line : {to_json_line(record), parent_order}) {
        SCOPED_TRACE(line);
        JournalRecord parsed;
        ASSERT_TRUE(parse_json_line(line, parsed));
        EXPECT_EQ(parsed.key, record.key);
        EXPECT_EQ(parsed.label, record.label);
        EXPECT_EQ(parsed.objective_label, record.objective_label);
        EXPECT_EQ(parsed.feasible, record.feasible);
        EXPECT_EQ(parsed.family, record.family);
        EXPECT_EQ(parsed.solar_cm2, record.solar_cm2);  // bit-exact
        EXPECT_EQ(parsed.capacitance_f, record.capacitance_f);
        EXPECT_EQ(parsed.arch, record.arch);
        EXPECT_EQ(parsed.n_pe, record.n_pe);
        EXPECT_EQ(parsed.cache_bytes, record.cache_bytes);
        EXPECT_EQ(parsed.mean_latency_s, record.mean_latency_s);
        EXPECT_EQ(parsed.lat_sp, record.lat_sp);
        EXPECT_EQ(parsed.score, record.score);
        EXPECT_EQ(parsed.evaluations, record.evaluations);
        EXPECT_EQ(parsed.cache_hits, record.cache_hits);
        EXPECT_EQ(parsed.cache_misses, record.cache_misses);
        EXPECT_EQ(parsed.search_wall_time_s, record.search_wall_time_s);
        EXPECT_EQ(parsed.wall_time_s, record.wall_time_s);
        EXPECT_EQ(parsed.failure_code, record.failure_code);
        EXPECT_EQ(parsed.failure_detail, record.failure_detail);
        EXPECT_EQ(parsed.attempts, record.attempts);
    }
}

TEST(CampaignJournalTest, TornAndMalformedLinesAreSkipped)
{
    const std::string path = journal_path("torn_journal.jsonl");
    JournalRecord record;
    record.key = "k1";
    record.label = "good";
    record.objective_label = "lat";
    append_campaign_journal(path, record);
    {
        // A kill mid-write leaves a torn tail; garbage must not load.
        std::ofstream out(path, std::ios::app);
        out << R"({"key":"k2","label":"torn)" << '\n';
        out << "not json at all\n";
        out << "{}\n";
    }
    const auto loaded = load_campaign_journal(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.count("k1"), 1u);
    EXPECT_EQ(loaded.at("k1").label, "good");
}

TEST(CampaignJournalTest, MissingFileLoadsEmpty)
{
    EXPECT_TRUE(load_campaign_journal(
                    ::testing::TempDir() + "does_not_exist.jsonl")
                    .empty());
}

TEST(CampaignJournalTest, LastRecordWinsOnDuplicateKeys)
{
    const std::string path = journal_path("dup_journal.jsonl");
    JournalRecord first;
    first.key = "k";
    first.label = "old";
    JournalRecord second = first;
    second.label = "new";
    append_campaign_journal(path, first);
    append_campaign_journal(path, second);
    const auto loaded = load_campaign_journal(path);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded.at("k").label, "new");
}

TEST(CampaignResumeTest, SecondRunIsServedEntirelyFromJournal)
{
    CampaignOptions options;
    options.journal_path = journal_path("resume_full.jsonl");
    const CampaignResult first =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(first.journal_skips, 0u);
    const CampaignResult second =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(second.journal_skips, 2u);
    for (const auto& entry : second.entries)
        EXPECT_TRUE(entry.from_journal) << entry.label;
    EXPECT_EQ(deterministic_csv(first), deterministic_csv(second));
}

TEST(CampaignResumeTest, ResumeAfterKillReproducesCsvByteForByte)
{
    // Reference: an uninterrupted run with no journal at all.
    const CampaignResult reference =
        run_campaign(two_cases(), small_options());

    // "Killed" run: journal a full campaign, then truncate the file to
    // its first line plus a torn tail — the on-disk state after dying
    // mid-write of the second record.
    CampaignOptions options;
    options.journal_path = journal_path("resume_kill.jsonl");
    run_campaign(two_cases(), small_options(), options);
    std::string first_line;
    {
        std::ifstream in(options.journal_path);
        ASSERT_TRUE(static_cast<bool>(std::getline(in, first_line)));
    }
    {
        std::ofstream out(options.journal_path, std::ios::trunc);
        out << first_line << '\n'
            << R"({"key":"abcd","label":"torn mid-wri)";
    }

    const CampaignResult resumed =
        run_campaign(two_cases(), small_options(), options);
    EXPECT_EQ(resumed.journal_skips, 1u);
    int recomputed = 0;
    for (const auto& entry : resumed.entries)
        recomputed += entry.from_journal ? 0 : 1;
    EXPECT_EQ(recomputed, 1);
    EXPECT_EQ(deterministic_csv(reference), deterministic_csv(resumed));
}

TEST(CampaignResumeTest, StaleJournalFromDifferentOptionsIsIgnored)
{
    CampaignOptions options;
    options.journal_path = journal_path("resume_stale.jsonl");
    run_campaign(two_cases(), small_options(3), options);
    // Different outer seed => different case keys => nothing to reuse.
    const CampaignResult rerun =
        run_campaign(two_cases(), small_options(4), options);
    EXPECT_EQ(rerun.journal_skips, 0u);
}

TEST(CampaignIsolationTest, CrashingCasesAreRecordedNotFatal)
{
    // An empty environment list makes every case's explorer fatal();
    // with isolation on, the campaign must survive and report kCrashed.
    search::ExplorerOptions bad = small_options();
    bad.k_eh_envs.clear();
    CampaignOptions options;
    options.isolate_failures = true;
    options.max_attempts = 2;
    const CampaignResult result =
        run_campaign(two_cases(), bad, options);
    ASSERT_EQ(result.entries.size(), 2u);
    for (const auto& entry : result.entries) {
        EXPECT_FALSE(entry.solution.feasible) << entry.label;
        EXPECT_EQ(entry.solution.failure.code,
                  fault::FailureCode::kCrashed)
            << entry.label;
        EXPECT_EQ(entry.attempts, 2) << entry.label;
        EXPECT_GT(entry.solution.score, 0.0);
    }
    std::ostringstream os;
    result.write_csv(os);
    EXPECT_NE(os.str().find("crashed"), std::string::npos);
}

TEST(CampaignIsolationDeathTest, WithoutIsolationTheCrashIsFatal)
{
    search::ExplorerOptions bad = small_options();
    bad.k_eh_envs.clear();
    CampaignOptions options;
    options.isolate_failures = false;
    EXPECT_EXIT(run_campaign(two_cases(), bad, options),
                ::testing::ExitedWithCode(1), "environment");
}

TEST(CampaignOptionsDeathTest, ValidationRejectsBadFields)
{
    CampaignOptions negative_threads;
    negative_threads.threads = -1;
    EXPECT_EXIT(run_campaign(two_cases(), small_options(),
                             negative_threads),
                ::testing::ExitedWithCode(1), "threads");

    CampaignOptions zero_attempts;
    zero_attempts.max_attempts = 0;
    EXPECT_EXIT(run_campaign(two_cases(), small_options(), zero_attempts),
                ::testing::ExitedWithCode(1), "max_attempts");

    CampaignOptions bad_backoff;
    bad_backoff.retry_backoff_s = -1.0;
    EXPECT_EXIT(run_campaign(two_cases(), small_options(), bad_backoff),
                ::testing::ExitedWithCode(1), "retry_backoff_s");
}

}  // namespace
}  // namespace chrysalis::core
