// End-to-end tests of the distributed campaign subsystem: worker-list
// parsing, fleet probing, the headline byte-identity guarantee (CSV and
// canonical journal identical to a sequential local run at 1, 2 and 4
// workers), fault-tolerant reassignment around a dead worker and a
// worker killed mid-campaign, journal-based resume, and the fleet
// telemetry pull after a campaign.

#include "dist/coordinator.hpp"
#include "dist/fleet_telemetry.hpp"
#include "dist/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/campaign_spec.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

using namespace chrysalis;

core::CampaignSpec small_spec()
{
    core::CampaignSpec spec;
    spec.cases = 6;
    spec.population = 4;
    spec.generations = 2;
    spec.seed = 3;
    return spec;
}

/// A spec whose cases take milliseconds each (ResNet-18 on the future
/// space; KWS cases take a fraction of one), for tests whose point
/// needs the campaign to outlast a lane's start-up or a killer
/// thread's wake-up on a loaded machine.
core::CampaignSpec slow_spec(int cases)
{
    core::CampaignSpec spec;
    spec.model = "resnet18";
    spec.space = "future";
    spec.cases = cases;
    spec.population = 8;
    spec.generations = 4;
    spec.seed = 3;
    return spec;
}

std::string campaign_csv(const core::CampaignResult& result)
{
    std::ostringstream out;
    result.write_csv(out, core::CsvColumns::kDeterministic);
    return out.str();
}

std::string read_file(const std::string& path)
{
    std::ifstream input(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(input)) << path;
    std::ostringstream out;
    out << input.rdbuf();
    return out.str();
}

/// Sequential local oracle: CSV + deterministic journal bytes.
struct Reference {
    std::string csv;
    std::string journal;
};

Reference local_reference(const core::CampaignSpec& spec)
{
    const dnn::Model model = dnn::make_model(spec.model);
    const std::vector<core::CampaignCase> cases =
        core::build_campaign_cases(spec, model);
    std::unique_ptr<fault::FaultInjector> faults;
    const search::ExplorerOptions base =
        core::build_explorer_options(spec, faults);
    // One file per test: ctest runs the tests of this binary as
    // concurrent processes in one working directory.
    const std::string path =
        std::string("dist_test_reference_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".jsonl";
    std::remove(path.c_str());
    core::CampaignOptions options;
    options.threads = 1;
    options.journal_path = path;
    options.deterministic_journal = true;
    Reference reference;
    reference.csv = campaign_csv(core::run_campaign(cases, base, options));
    reference.journal = read_file(path);
    std::remove(path.c_str());
    return reference;
}

/// Starts \p count loopback daemons and returns them plus their
/// addresses.
std::vector<std::unique_ptr<serve::Server>>
start_fleet(int count, std::vector<dist::WorkerAddress>& addresses)
{
    std::vector<std::unique_ptr<serve::Server>> servers;
    for (int i = 0; i < count; ++i) {
        serve::ServerOptions options;
        options.host = "127.0.0.1";
        options.threads = 1;
        auto server = std::make_unique<serve::Server>(options);
        server->start();
        addresses.push_back({"127.0.0.1", server->port()});
        servers.push_back(std::move(server));
    }
    return servers;
}

/// A port that refuses connections: acquired by starting a server just
/// long enough to learn its kernel-assigned port, then stopping it.
int dead_port()
{
    serve::ServerOptions options;
    options.host = "127.0.0.1";
    options.threads = 1;
    serve::Server server(options);
    server.start();
    const int port = server.port();
    server.stop();
    return port;
}

TEST(WorkerPool, ParsesWorkerLists)
{
    const auto workers =
        dist::parse_worker_list("a:1, b:20 ,\thost.example:65535");
    ASSERT_EQ(workers.size(), 3u);
    EXPECT_EQ(workers[0].host, "a");
    EXPECT_EQ(workers[0].port, 1);
    EXPECT_EQ(workers[1].host, "b");
    EXPECT_EQ(workers[1].port, 20);
    EXPECT_EQ(workers[2].host, "host.example");
    EXPECT_EQ(workers[2].port, 65535);
    EXPECT_EQ(workers[2].to_string(), "host.example:65535");
}

TEST(WorkerPool, RejectsMalformedWorkerLists)
{
    FatalThrowGuard guard;
    EXPECT_THROW(dist::parse_worker_list(""), FatalError);
    EXPECT_THROW(dist::parse_worker_list("hostonly"), FatalError);
    EXPECT_THROW(dist::parse_worker_list("host:"), FatalError);
    EXPECT_THROW(dist::parse_worker_list(":123"), FatalError);
    EXPECT_THROW(dist::parse_worker_list("host:0"), FatalError);
    EXPECT_THROW(dist::parse_worker_list("host:70000"), FatalError);
    EXPECT_THROW(dist::parse_worker_list("host:12x"), FatalError);
    EXPECT_THROW(dist::parse_worker_list(" , ,"), FatalError);
}

TEST(WorkerPool, ProbeSeparatesLiveAndDeadWorkers)
{
    std::vector<dist::WorkerAddress> addresses;
    auto servers = start_fleet(1, addresses);
    addresses.push_back({"127.0.0.1", dead_port()});

    const std::vector<dist::WorkerStatus> statuses =
        dist::probe_workers(addresses, serve::ClientOptions{});
    ASSERT_EQ(statuses.size(), 2u);
    EXPECT_TRUE(statuses[0].reachable);
    EXPECT_TRUE(statuses[0].ready);
    EXPECT_FALSE(statuses[0].worker_id.empty());
    EXPECT_FALSE(statuses[1].reachable);
    EXPECT_FALSE(statuses[1].ready);
    EXPECT_EQ(std::count_if(statuses.begin(), statuses.end(),
                            [](const dist::WorkerStatus& status) {
                                return status.ready;
                            }),
              1);
    servers[0]->stop();
}

TEST(DistCampaign, ByteIdenticalAtOneTwoAndFourWorkers)
{
    const core::CampaignSpec spec = small_spec();
    const Reference reference = local_reference(spec);
    const std::string journal = "dist_test_scaling.jsonl";

    for (const int worker_count : {1, 2, 4}) {
        std::vector<dist::WorkerAddress> addresses;
        auto servers = start_fleet(worker_count, addresses);
        dist::DistCampaignOptions options;
        options.workers = addresses;
        options.journal_path = journal;
        std::remove(journal.c_str());

        const dist::DistCampaignResult result =
            dist::run_distributed_campaign(spec, options);
        for (auto& server : servers)
            server->stop();

        EXPECT_EQ(result.cases, 6u);
        EXPECT_EQ(result.completed, 6u);
        EXPECT_EQ(campaign_csv(result.campaign), reference.csv)
            << worker_count << " workers";
        EXPECT_EQ(read_file(journal), reference.journal)
            << worker_count << " workers";
        std::remove(journal.c_str());
    }
}

TEST(DistCampaign, ReassignsAroundADeadWorker)
{
    // Slow cases: the dead worker's lane must pop a case before the
    // live worker has finished them all.
    const core::CampaignSpec spec = slow_spec(6);
    const Reference reference = local_reference(spec);

    std::vector<dist::WorkerAddress> addresses;
    auto servers = start_fleet(1, addresses);
    addresses.push_back({"127.0.0.1", dead_port()});
    dist::DistCampaignOptions options;
    options.workers = addresses;

    const dist::DistCampaignResult result =
        dist::run_distributed_campaign(spec, options);
    servers[0]->stop();

    EXPECT_EQ(campaign_csv(result.campaign), reference.csv);
    EXPECT_GE(result.reassigned, 1u);
    ASSERT_EQ(result.workers.size(), 2u);
    EXPECT_FALSE(result.workers[1].ready_at_start);
    EXPECT_GE(result.workers[1].failures, 1u);
    EXPECT_EQ(result.workers[1].completed, 0u);
    EXPECT_EQ(result.workers[0].completed, 6u);
}

constexpr unsigned kKilledCampaignCases = 24;

TEST(DistCampaign, SurvivesAWorkerKilledMidCampaign)
{
    const core::CampaignSpec spec = slow_spec(kKilledCampaignCases);
    const Reference reference = local_reference(spec);

    std::vector<dist::WorkerAddress> addresses;
    auto servers = start_fleet(2, addresses);
    dist::DistCampaignOptions options;
    options.workers = addresses;

    // Kill one worker as soon as it has accepted its second case, so
    // most of the queue remains: its lane must fail and its future
    // cases migrate to the survivor. (A wall-clock timer lets the
    // campaign finish before the kill; slow cases leave the polling
    // killer time to wake.)
    std::atomic<bool> campaign_done{false};
    std::thread killer([&servers, &campaign_done] {
        while (!campaign_done.load() &&
               servers[1]->stats().requests_run_case < 2)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        servers[1]->stop();
    });
    const dist::DistCampaignResult result =
        dist::run_distributed_campaign(spec, options);
    campaign_done.store(true);
    killer.join();
    servers[0]->stop();

    EXPECT_EQ(result.completed, kKilledCampaignCases);
    EXPECT_EQ(campaign_csv(result.campaign), reference.csv);
    EXPECT_GE(result.reassigned, 1u);
    ASSERT_EQ(result.workers.size(), 2u);
    EXPECT_LT(result.workers[1].completed, kKilledCampaignCases);
}

TEST(DistCampaign, FailsWhenEveryWorkerIsDead)
{
    const core::CampaignSpec spec = small_spec();
    dist::DistCampaignOptions options;
    options.workers = {{"127.0.0.1", dead_port()},
                       {"127.0.0.1", dead_port()}};
    FatalThrowGuard guard;
    EXPECT_THROW(dist::run_distributed_campaign(spec, options),
                 FatalError);
}

TEST(DistCampaign, ResumesFromAFinishedJournalWithoutDispatching)
{
    const core::CampaignSpec spec = small_spec();
    const std::string journal = "dist_test_resume.jsonl";
    std::remove(journal.c_str());

    {
        std::vector<dist::WorkerAddress> addresses;
        auto servers = start_fleet(2, addresses);
        dist::DistCampaignOptions options;
        options.workers = addresses;
        options.journal_path = journal;
        const dist::DistCampaignResult first =
            dist::run_distributed_campaign(spec, options);
        for (auto& server : servers)
            server->stop();
        EXPECT_EQ(first.completed, 6u);
    }

    // Second run: every case restores from the journal, so the fleet
    // can be entirely dead and the output is still produced.
    dist::DistCampaignOptions options;
    options.workers = {{"127.0.0.1", dead_port()}};
    options.journal_path = journal;
    const dist::DistCampaignResult second =
        dist::run_distributed_campaign(spec, options);
    EXPECT_EQ(second.restored, 6u);
    EXPECT_EQ(second.dispatched, 0u);
    EXPECT_EQ(second.completed, 0u);
    EXPECT_EQ(campaign_csv(second.campaign),
              local_reference(spec).csv);
    std::remove(journal.c_str());
}

TEST(DistCampaign, RefusesModelFilePaths)
{
    core::CampaignSpec spec = small_spec();
    spec.model = "models/custom.model";
    dist::DistCampaignOptions options;
    options.workers = {{"127.0.0.1", 1}};
    FatalThrowGuard guard;
    EXPECT_THROW(dist::run_distributed_campaign(spec, options),
                 FatalError);
}

TEST(DistCampaign, FleetTelemetryIsPulledAfterTheCampaign)
{
    // Two workers, each with the telemetry a daemon exposes.
    struct Worker {
        obs::MetricsRegistry registry;
        obs::TraceSession trace;
        std::unique_ptr<serve::Server> server;
    };
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<dist::WorkerAddress> addresses;
    for (int i = 0; i < 2; ++i) {
        auto worker = std::make_unique<Worker>();
        serve::ServerOptions server_options;
        server_options.host = "127.0.0.1";
        server_options.threads = 1;
        server_options.worker_id = "fleet-w" + std::to_string(i);
        server_options.metrics_source = &worker->registry;
        server_options.trace_source = &worker->trace;
        worker->server = std::make_unique<serve::Server>(server_options);
        worker->server->start();
        addresses.push_back({"127.0.0.1", worker->server->port()});
        workers.push_back(std::move(worker));
    }

    const std::string journal = "dist_test_fleet.jsonl";
    std::remove(journal.c_str());
    dist::DistCampaignOptions options;
    options.workers = addresses;
    options.journal_path = journal;
    obs::TraceSession coordinator;
    obs::FleetCollector collector;
    std::size_t pulled = 0;
    {
        obs::ScopedTrace scoped(coordinator);
        const dist::DistCampaignResult result =
            dist::run_distributed_campaign(small_spec(), options);
        EXPECT_EQ(result.completed, 6u);
        pulled = dist::collect_fleet_telemetry(
            addresses, dist::FleetPullOptions{}, collector);
    }
    for (auto& worker : workers)
        worker->server->stop();
    std::remove(journal.c_str());

    EXPECT_EQ(pulled, 2u);
    ASSERT_EQ(collector.workers().size(), 2u);
    EXPECT_EQ(collector.workers()[0].worker_id, "fleet-w0");
    EXPECT_EQ(collector.workers()[1].worker_id, "fleet-w1");
    std::uint64_t clamped = 0;
    EXPECT_GT(collector.aligned(&clamped).size(), 0u);
    EXPECT_EQ(clamped, 0u);
    EXPECT_NE(collector.metrics_rollup_json().find("\"fleet/workers\":2"),
              std::string::npos);

    // The coordinator's own session accounts for the run's tail.
    std::vector<std::string> names;
    for (const obs::TraceEvent& event : coordinator.merged())
        names.push_back(event.name);
    for (const char* name : {"dist/run", "dist/probe", "dist/case",
                             "dist/journal_rewrite", "dist/fleet_pull"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end())
            << name;
    }
}

}  // namespace
