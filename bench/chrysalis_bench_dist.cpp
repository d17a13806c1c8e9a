/// \file
/// Distributed-campaign scaling and fault-tolerance bench.
///
/// Runs one deterministic campaign three ways and holds the outputs to
/// the subsystem's core promise — the merged CSV and journal are
/// byte-identical to a single-process run at any worker count:
///
///  1. Local reference: sequential `run_campaign` (threads=1,
///     deterministic journal). Its CSV/journal bytes are the oracle.
///  2. Scaling: the same campaign through `run_distributed_campaign`
///     against 1, 2 and 4 in-process `serve::Server` workers;
///     per-worker-count throughput and the byte-identity gate land in
///     the report. The campaign walls (`wall_s_<n>w`, `speedup_4w`)
///     time `run_distributed_campaign` alone; the widest pass's fleet
///     telemetry pull is a separate call with its own headline
///     (`fleet_pull_s`).
///  3. --chaos: a hostile fleet — one worker that is *dead* before the
///     campaign starts (its port was released by a stopped server),
///     one whose chaos hook (`ServerOptions::chaos`) runs a
///     seed-deterministic `fault::NetFaultInjector` (refused connects,
///     torn writes, resets), and one healthy worker that is killed
///     mid-run, as soon as it has accepted its second `run_case`. The
///     gates: the campaign still completes, at least one case was
///     reassigned, the killed worker's lane recorded at least one
///     failure (`chaos_victim_failures`), and the bytes still match
///     the oracle.
///
/// The widest scaling pass and the chaos pass also exercise the
/// fleet-telemetry path: each in-process worker carries its own
/// TraceSession/MetricsRegistry (exactly what a real daemon exposes
/// via `trace_export` / `metrics_snapshot`); after the campaign
/// returns, `dist::collect_fleet_telemetry` pulls and merges them,
/// and the merged Chrome trace / metrics rollup land next to the
/// report (BENCH_dist_fleet_trace.json and friends). The per-stage
/// remote-time split parsed from traced replies
/// (queue/decode/eval/encode) goes into the report headlines.
///
/// Usage:
///   chrysalis_bench_dist [--model zoo-name] [--cases n]
///                        [--population n] [--generations n] [--seed n]
///                        [--streams n] [--chaos] [--chaos-seed n]
///                        [--fleet-trace-out f] [--fleet-metrics-out f]
///
/// The run report is BENCH_dist_scaling.json.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_util.hpp"
#include "common/logging.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/campaign_spec.hpp"
#include "dist/coordinator.hpp"
#include "dist/fleet_telemetry.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "fault/net_fault_injector.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace {

using namespace chrysalis;

struct DistBenchOptions {
    std::string model = "kws";
    int cases = 24;
    int population = 4;
    int generations = 2;
    std::uint64_t seed = 1;
    int streams = 1;
    bool chaos = false;
    std::uint64_t chaos_seed = 0;  ///< 0 = derive from --seed
    /// Merged fleet artifacts of the widest scaling pass; the chaos
    /// pass writes its own next to them ("..._chaos_..." spelling).
    std::string fleet_trace_out = "BENCH_dist_fleet_trace.json";
    std::string fleet_metrics_out = "BENCH_dist_fleet_metrics.json";
};

void
usage(const char* argv0)
{
    std::printf("usage: %s [--model zoo-name] [--cases n]\n"
                "          [--population n] [--generations n] [--seed n]\n"
                "          [--streams n] [--chaos] [--chaos-seed n]\n"
                "          [--fleet-trace-out f] [--fleet-metrics-out f]\n",
                argv0);
}

bool
parse_args(int argc, char** argv, DistBenchOptions& options)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
                has_inline = true;
            }
        }
        const auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--model") {
            options.model = next();
        } else if (arg == "--cases") {
            options.cases = std::stoi(next());
        } else if (arg == "--population") {
            options.population = std::stoi(next());
        } else if (arg == "--generations") {
            options.generations = std::stoi(next());
        } else if (arg == "--seed") {
            options.seed = std::stoull(next());
        } else if (arg == "--streams") {
            options.streams = std::stoi(next());
        } else if (arg == "--chaos") {
            options.chaos = true;
        } else if (arg == "--chaos-seed") {
            options.chaos_seed = std::stoull(next());
        } else if (arg == "--fleet-trace-out") {
            options.fleet_trace_out = next();
        } else if (arg == "--fleet-metrics-out") {
            options.fleet_metrics_out = next();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    if (options.cases < 1 || options.population < 2 ||
        options.generations < 1 || options.streams < 1)
        fatal("--cases/--generations/--streams must be >= 1, "
              "--population >= 2");
    return true;
}

std::string
campaign_csv(const core::CampaignResult& result)
{
    std::ostringstream out;
    result.write_csv(out, core::CsvColumns::kDeterministic);
    return out.str();
}

std::string
read_file(const std::string& path)
{
    std::ifstream input(path, std::ios::binary);
    if (!input)
        fatal("cannot read '", path, "'");
    std::ostringstream out;
    out << input.rdbuf();
    return out.str();
}

/// The survivor worker's chaos the coordinator's lanes must
/// out-stubborn. Rates are deliberately milder than the serve load
/// bench: a run_case request is long-lived, and every transient counts
/// against a small per-lane budget.
fault::NetFaultSpec
chaos_spec(std::uint64_t seed)
{
    fault::NetFaultSpec spec;
    spec.seed = seed;
    spec.connect_refusal_probability = 0.05;
    spec.torn_write_probability = 0.10;
    spec.torn_write_chunk_bytes = 9;
    spec.torn_write_stall_s = 0.0005;
    spec.read_delay_probability = 0.10;
    spec.read_delay_s = 0.001;
    spec.reset_probability = 0.01;
    return spec;
}

/// Telemetry every in-process worker carries, as a real daemon would:
/// its own registry + trace session wired into ServerOptions, so the
/// coordinator's `trace_export`/`metrics_snapshot` pulls see distinct
/// per-worker buffers even though all servers share this process.
struct WorkerTelemetryKit {
    std::unique_ptr<obs::MetricsRegistry> registry =
        std::make_unique<obs::MetricsRegistry>();
    std::unique_ptr<obs::TraceSession> trace =
        std::make_unique<obs::TraceSession>();
};

/// Accounting of one fleet telemetry pull.
struct FleetPull {
    std::size_t collected = 0;  ///< workers pulled
    std::uint64_t spans = 0;    ///< spans in the merged trace
    std::uint64_t clamped = 0;  ///< spans clamped to zero duration
    double pull_s = 0.0;        ///< wall of the pull, merge and writes
};

/// Pulls \p workers' telemetry after a campaign has returned and
/// writes the merged trace and rollup. The bench's own trace session,
/// when attached (CHRYSALIS_BENCH_TRACE_OUT), joins as "coordinator".
FleetPull
pull_fleet(const std::vector<dist::WorkerAddress>& workers,
           const std::string& trace_path,
           const std::string& metrics_path)
{
    obs::SpanTimer timer("bench/dist_fleet_pull");
    obs::FleetCollector collector;
    if (obs::TraceSession* session = obs::trace()) {
        collector.add_worker(obs::local_telemetry(
            "coordinator", *session, obs::metrics()));
    }
    FleetPull pull;
    pull.collected = dist::collect_fleet_telemetry(
        workers, dist::FleetPullOptions{}, collector);
    pull.spans = collector.aligned(&pull.clamped).size();
    collector.write_chrome_trace_file(trace_path);
    collector.write_metrics_rollup_file(metrics_path);
    pull.pull_s = timer.elapsed_s();
    return pull;
}

/// Report headlines for the remote per-stage time split parsed from
/// traced replies (seconds per completed case, averaged).
void
stage_headlines(const std::string& prefix,
                const dist::StageTotals& totals)
{
    const double samples =
        totals.samples > 0 ? static_cast<double>(totals.samples) : 1.0;
    bench::headline(prefix + "stage_samples",
                    static_cast<double>(totals.samples));
    bench::headline(prefix + "stage_queue_wait_avg_s",
                    totals.queue_wait_s / samples);
    bench::headline(prefix + "stage_decode_avg_s",
                    totals.decode_s / samples);
    bench::headline(prefix + "stage_eval_avg_s",
                    totals.eval_s / samples);
    bench::headline(prefix + "stage_encode_avg_s",
                    totals.encode_s / samples);
}

}  // namespace

int
main(int argc, char** argv)
{
    DistBenchOptions options;
    if (!parse_args(argc, argv, options))
        return 2;

    bench::begin_report(
        "dist_scaling",
        "distributed campaign scaling and byte-identity gate", true,
        "dist_scaling");
    bench::print_banner(
        "dist_scaling",
        "distributed campaign scaling and byte-identity gate");

    core::CampaignSpec spec;
    spec.model = options.model;
    spec.cases = options.cases;
    spec.population = options.population;
    spec.generations = options.generations;
    spec.seed = options.seed;
    spec.validate();

    const std::string ref_journal = "bench_dist_ref.jsonl";
    const std::string dist_journal = "bench_dist_run.jsonl";

    // Oracle: sequential local run. threads=1 keeps the journal in
    // case order, which is exactly the canonical order the coordinator
    // rewrites to.
    std::string reference_csv;
    std::string reference_journal_bytes;
    double reference_wall_s = 0.0;
    {
        const dnn::Model model = dnn::make_model(spec.model);
        const std::vector<core::CampaignCase> cases =
            core::build_campaign_cases(spec, model);
        std::unique_ptr<fault::FaultInjector> faults;
        const search::ExplorerOptions base =
            core::build_explorer_options(spec, faults);
        core::CampaignOptions campaign_options;
        campaign_options.threads = 1;
        campaign_options.max_attempts = spec.max_attempts;
        campaign_options.journal_path = ref_journal;
        campaign_options.deterministic_journal = true;
        std::remove(ref_journal.c_str());
        obs::SpanTimer timer("bench/dist_reference");
        const core::CampaignResult reference =
            core::run_campaign(cases, base, campaign_options);
        reference_wall_s = timer.elapsed_s();
        reference_csv = campaign_csv(reference);
        reference_journal_bytes = read_file(ref_journal);
        std::remove(ref_journal.c_str());
    }
    std::printf("reference: %d cases in %.3f s (sequential)\n",
                options.cases, reference_wall_s);
    bench::headline("cases", static_cast<double>(options.cases));
    bench::headline("reference_wall_s", reference_wall_s);

    // Scaling pass: the same campaign against 1, 2 and 4 local workers.
    static const int kWorkerCounts[] = {1, 2, 4};
    bool all_identical = true;
    double wall_1w = 0.0;
    double wall_4w = 0.0;
    const int widest_count =
        kWorkerCounts[sizeof kWorkerCounts / sizeof kWorkerCounts[0] -
                      1];
    dist::StageTotals widest_totals;
    FleetPull fleet;
    for (const int worker_count : kWorkerCounts) {
        std::vector<std::unique_ptr<serve::Server>> servers;
        std::vector<WorkerTelemetryKit> kits(
            static_cast<std::size_t>(worker_count));
        dist::DistCampaignOptions dist_options;
        for (int w = 0; w < worker_count; ++w) {
            serve::ServerOptions server_options;
            server_options.host = "127.0.0.1";
            server_options.threads = options.streams;
            server_options.worker_id =
                "bench-w" + std::to_string(w);
            server_options.metrics_source =
                kits[static_cast<std::size_t>(w)].registry.get();
            server_options.trace_source =
                kits[static_cast<std::size_t>(w)].trace.get();
            auto server =
                std::make_unique<serve::Server>(server_options);
            server->start();
            dist_options.workers.push_back(
                {"127.0.0.1", server->port()});
            servers.push_back(std::move(server));
        }
        dist_options.streams_per_worker = options.streams;
        dist_options.journal_path = dist_journal;
        std::remove(dist_journal.c_str());

        obs::SpanTimer timer("bench/dist_scaling");
        const dist::DistCampaignResult result =
            dist::run_distributed_campaign(spec, dist_options);
        const double wall_s = timer.elapsed_s();
        if (worker_count == widest_count) {
            // The widest pass exercises the full merge and leaves the
            // artifacts behind for inspection/CI validation.
            widest_totals = result.stage_totals;
            fleet = pull_fleet(dist_options.workers,
                               options.fleet_trace_out,
                               options.fleet_metrics_out);
        }
        for (auto& server : servers)
            server->stop();

        const bool csv_identical =
            campaign_csv(result.campaign) == reference_csv;
        const bool journal_identical =
            read_file(dist_journal) == reference_journal_bytes;
        std::remove(dist_journal.c_str());
        all_identical =
            all_identical && csv_identical && journal_identical;
        const double throughput =
            wall_s > 0.0 ? static_cast<double>(options.cases) / wall_s
                         : 0.0;
        if (worker_count == 1)
            wall_1w = wall_s;
        if (worker_count == 4)
            wall_4w = wall_s;

        std::printf("%dw: %.3f s (%.2f cases/s), dispatched %llu, "
                    "csv %s, journal %s\n",
                    worker_count, wall_s, throughput,
                    static_cast<unsigned long long>(result.dispatched),
                    csv_identical ? "identical" : "MISMATCH",
                    journal_identical ? "identical" : "MISMATCH");
        const std::string suffix = std::to_string(worker_count) + "w";
        bench::headline("wall_s_" + suffix, wall_s);
        bench::headline("throughput_" + suffix, throughput);
        bench::headline("csv_identical_" + suffix,
                        csv_identical ? 1.0 : 0.0);
        bench::headline("journal_identical_" + suffix,
                        journal_identical ? 1.0 : 0.0);
    }
    const double speedup =
        wall_4w > 0.0 ? wall_1w / wall_4w : 0.0;
    std::printf("speedup 1w -> 4w: %.2fx\n", speedup);
    bench::headline("speedup_4w", speedup);
    std::printf("fleet (4w): %zu workers pulled in %.3f s, %llu spans "
                "merged (%llu clamped) -> %s\n",
                fleet.collected, fleet.pull_s,
                static_cast<unsigned long long>(fleet.spans),
                static_cast<unsigned long long>(fleet.clamped),
                options.fleet_trace_out.c_str());
    bench::headline("fleet_pull_s", fleet.pull_s);
    bench::headline("fleet_workers_collected",
                    static_cast<double>(fleet.collected));
    bench::headline("fleet_spans", static_cast<double>(fleet.spans));
    bench::headline("fleet_clamped_spans",
                    static_cast<double>(fleet.clamped));
    stage_headlines("", widest_totals);

    // Chaos pass: dead worker + chaos-hooked worker + a healthy worker
    // killed mid-run. The fleet must still produce the oracle's bytes,
    // with at least one reassignment along the way.
    bool chaos_ok = true;
    if (options.chaos) {
        const std::uint64_t chaos_seed = options.chaos_seed != 0
                                             ? options.chaos_seed
                                             : options.seed + 7791;
        fault::NetFaultInjector chaos(chaos_spec(chaos_seed));
        std::printf("chaos (survivor): %s\n", chaos.describe().c_str());

        // A worker that is dead on arrival: start a server only to
        // learn a just-released port, then aim a lane at it.
        int dead_port = 0;
        {
            serve::ServerOptions dead_options;
            dead_options.host = "127.0.0.1";
            dead_options.threads = 1;
            serve::Server dead(dead_options);
            dead.start();
            dead_port = dead.port();
            dead.stop();
        }

        serve::ServerOptions server_options;
        server_options.host = "127.0.0.1";
        server_options.threads = options.streams;
        WorkerTelemetryKit victim_kit;
        server_options.worker_id = "chaos-victim";
        server_options.metrics_source = victim_kit.registry.get();
        server_options.trace_source = victim_kit.trace.get();
        serve::Server victim(server_options);  // killed mid-run
        victim.start();
        WorkerTelemetryKit survivor_kit;
        server_options.worker_id = "chaos-survivor";
        server_options.metrics_source = survivor_kit.registry.get();
        server_options.trace_source = survivor_kit.trace.get();
        server_options.chaos = &chaos;
        serve::Server survivor(server_options);
        survivor.start();

        dist::DistCampaignOptions dist_options;
        dist_options.workers = {{"127.0.0.1", victim.port()},
                                {"127.0.0.1", survivor.port()},
                                {"127.0.0.1", dead_port}};
        dist_options.streams_per_worker = options.streams;
        // A little more patience per lane: the chaos-hooked survivor
        // eats transients by design and must not die with the victim.
        dist_options.max_worker_failures = 4;
        dist_options.journal_path = dist_journal;
        std::remove(dist_journal.c_str());

        // Kill the victim as soon as it has accepted its second case,
        // so most of the queue remains and its lane must fail over. A
        // timer would race the campaign, which can finish first.
        std::atomic<bool> campaign_done{false};
        std::thread killer([&victim, &campaign_done] {
            while (!campaign_done.load() &&
                   victim.stats().requests_run_case < 2)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            victim.stop();
        });
        obs::SpanTimer timer("bench/dist_chaos");
        const dist::DistCampaignResult result =
            dist::run_distributed_campaign(spec, dist_options);
        const double wall_s = timer.elapsed_s();
        campaign_done.store(true);
        killer.join();
        // The chaos fleet writes its own merged artifacts: the merge
        // must survive a dead worker and a killed worker — best-effort
        // telemetry, never a campaign failure.
        const FleetPull chaos_fleet =
            pull_fleet(dist_options.workers,
                       "BENCH_dist_chaos_fleet_trace.json",
                       "BENCH_dist_chaos_fleet_metrics.json");
        survivor.stop();

        const bool csv_identical =
            campaign_csv(result.campaign) == reference_csv;
        const bool journal_identical =
            read_file(dist_journal) == reference_journal_bytes;
        std::remove(dist_journal.c_str());
        const std::uint64_t chaos_reassigned = result.reassigned;
        // workers[0] is the victim: its lane must have failed at least
        // once, or the kill landed after its last case.
        const std::uint64_t victim_failures = result.workers[0].failures;
        std::size_t dead_workers = 0;
        for (const dist::WorkerReport& report : result.workers) {
            if (report.dead)
                ++dead_workers;
        }
        chaos_ok = csv_identical && journal_identical &&
                   chaos_reassigned >= 1 && victim_failures >= 1;

        std::printf("chaos: %.3f s, reassigned %llu, victim failures "
                    "%llu, dead workers %zu, csv %s, journal %s\n",
                    wall_s,
                    static_cast<unsigned long long>(chaos_reassigned),
                    static_cast<unsigned long long>(victim_failures),
                    dead_workers,
                    csv_identical ? "identical" : "MISMATCH",
                    journal_identical ? "identical" : "MISMATCH");
        bench::headline("chaos_wall_s", wall_s);
        bench::headline("chaos_reassigned",
                        static_cast<double>(chaos_reassigned));
        bench::headline("chaos_victim_failures",
                        static_cast<double>(victim_failures));
        bench::headline("chaos_workers_dead",
                        static_cast<double>(dead_workers));
        bench::headline("chaos_csv_identical",
                        csv_identical ? 1.0 : 0.0);
        bench::headline("chaos_journal_identical",
                        journal_identical ? 1.0 : 0.0);
        bench::headline("chaos_fleet_workers_collected",
                        static_cast<double>(chaos_fleet.collected));
        bench::headline("chaos_fleet_spans",
                        static_cast<double>(chaos_fleet.spans));
        bench::headline("chaos_fleet_clamped_spans",
                        static_cast<double>(chaos_fleet.clamped));
        stage_headlines("chaos_", result.stage_totals);
    }
    bench::headline("chaos_enabled", options.chaos ? 1.0 : 0.0);

    const bool pass = all_identical && chaos_ok;
    std::printf("%s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
