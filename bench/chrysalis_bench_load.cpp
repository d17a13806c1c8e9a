/// \file
/// Closed-loop load generator for the `chrysalis-serve-v1` daemon.
///
/// Drives a deterministic mixed workload (design-point evaluations,
/// mapping searches, step simulations and stats probes, drawn from
/// small parameter pools so the server's response cache sees realistic
/// repeat traffic) from N concurrent client connections, then reports
/// p50/p95/p99 request latency, throughput, cache-hit rate and the two
/// hard acceptance gates: zero dropped connections and byte-identical
/// replies versus a single-threaded reference server.
///
/// Usage:
///   chrysalis_bench_load [--host addr] [--port n] [--requests n]
///                        [--clients n] [--threads n] [--seed n]
///                        [--no-verify] [--chaos] [--chaos-seed n]
///
/// Without --port the bench starts its own in-process server
/// (`--threads` workers, default 4) on an ephemeral loopback port.
/// With --port it targets an externally started chrysalis_served (CI's
/// smoke job does this). The run report is BENCH_serve_load.json.
///
/// --chaos turns the run into a network chaos gate: the in-process
/// server's chaos hook (`ServerOptions::chaos`) gets a seed-deterministic
/// `fault::NetFaultInjector` (refused connections, accept stalls, torn
/// writes, delayed reads, mid-frame resets), and the clients switch to
/// the resilient `Client::request()` path. The gates become:
/// 100% of requests must *eventually* succeed through retries, and
/// every reply must still be byte-identical to the chaos-free
/// single-threaded reference replay. The retry/timeout/chaos counters
/// land in the report.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/string_utils.hpp"
#include "fault/net_fault_injector.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace chrysalis;

struct LoadOptions {
    std::string host = "127.0.0.1";
    int port = 0;        ///< 0 = start an in-process server
    int requests = 500;
    int clients = 8;
    int threads = 4;     ///< in-process server eval workers
    std::uint64_t seed = 1;
    bool verify = true;  ///< replay against a 1-thread reference
    bool chaos = false;  ///< deterministic network-fault gate
    std::uint64_t chaos_seed = 0;  ///< 0 = derive from --seed
};

void
usage(const char* argv0)
{
    std::printf("usage: %s [--host addr] [--port n] [--requests n]\n"
                "          [--clients n] [--threads n] [--seed n]\n"
                "          [--no-verify] [--chaos] [--chaos-seed n]\n",
                argv0);
}

bool
parse_args(int argc, char** argv, LoadOptions& options)
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
        if (arg == "--host") {
            options.host = next();
        } else if (arg == "--port") {
            options.port = std::stoi(next());
        } else if (arg == "--requests") {
            options.requests = std::stoi(next());
        } else if (arg == "--clients") {
            options.clients = std::stoi(next());
        } else if (arg == "--threads") {
            options.threads = std::stoi(next());
        } else if (arg == "--seed") {
            options.seed = std::stoull(next());
        } else if (arg == "--no-verify") {
            options.verify = false;
        } else if (arg == "--chaos") {
            options.chaos = true;
        } else if (arg == "--chaos-seed") {
            options.chaos_seed = std::stoull(next());
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return false;
        }
    }
    if (options.requests < 1 || options.clients < 1 ||
        options.threads < 1)
        fatal("--requests, --clients and --threads must be >= 1");
    return true;
}

/// One deterministic request: the parsed form (the resilient client
/// rebuilds its payload from these) plus the exact wire payload request
/// i would carry — id i+1, so both paths emit identical bytes.
struct WorkItem {
    std::string type;
    FlatJsonFields params;
    std::string payload;
};

/// Builds the deterministic workload. Request i carries id i+1, and
/// parameters come from small pools so many requests repeat — the
/// repeat fraction is what exercises the shared response cache. Under
/// --chaos the stats probes are replaced by design points: only
/// memoized (retry-safe) types may ride a lossy network, and the 100%
/// completion gate needs every request to be retryable.
std::vector<WorkItem>
build_workload(const LoadOptions& options)
{
    static const char* const kModels[] = {"kws", "har", "simple_conv"};
    static const char* const kObjectives[] = {"latsp", "lat", "sp"};
    static const double kSolar[] = {4.0, 6.0, 8.0, 10.0, 12.0};
    static const double kCap[] = {50e-6, 100e-6, 200e-6};

    Rng rng(options.seed);
    serve::Client builder;  // unconnected: used only for build_request
    std::vector<WorkItem> items;
    items.reserve(static_cast<std::size_t>(options.requests));
    for (int i = 0; i < options.requests; ++i) {
        // 60% design points, 25% mapping searches, 10% step sims, 5%
        // stats probes.
        const std::int64_t dice = rng.uniform_int(0, 19);
        WorkItem item;
        if (dice < 12) {
            item.type = "eval_design_point";
        } else if (dice < 17) {
            item.type = "eval_mapping";
        } else if (dice < 19) {
            item.type = "sim_step";
            item.params["runs"] = "1";
            item.params["step_s"] = "0.05";
        } else {
            item.type = options.chaos ? "eval_design_point"
                                      : "server_stats";
        }
        if (item.type != "server_stats") {
            item.params["model"] =
                kModels[rng.uniform_int(0, 2)];
            item.params["objective"] =
                kObjectives[rng.uniform_int(0, 2)];
            item.params["solar_cm2"] =
                format_double_17g(kSolar[rng.uniform_int(0, 4)]);
            item.params["capacitance_f"] =
                format_double_17g(kCap[rng.uniform_int(0, 2)]);
        }
        builder.set_next_id(static_cast<std::uint64_t>(i) + 1);
        item.payload = builder.build_request(item.type, item.params);
        items.push_back(std::move(item));
    }
    return items;
}

/// The chaos schedule on the server's hook: every fault class, refused
/// connections included, at rates that make each class fire several
/// times in a default 500-request run — the side the resilient client
/// must out-stubborn.
fault::NetFaultSpec
chaos_spec(std::uint64_t seed)
{
    fault::NetFaultSpec spec;
    spec.seed = seed;
    spec.connect_refusal_probability = 0.10;
    spec.accept_stall_probability = 0.15;
    spec.accept_stall_s = 0.005;
    spec.torn_write_probability = 0.40;
    spec.torn_write_chunk_bytes = 7;
    spec.torn_write_stall_s = 0.0005;
    spec.read_delay_probability = 0.25;
    spec.read_delay_s = 0.002;
    spec.reset_probability = 0.04;
    return spec;
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

/// Options of the stats probe and the reference replay: a 120 s bound on
/// the dial and on each reply, so a slow host never fails the gate.
serve::ClientOptions
patient_client_options()
{
    serve::ClientOptions options;
    options.connect_timeout_s = 120.0;
    options.request_timeout_s = 120.0;
    return options;
}

}  // namespace

int
main(int argc, char** argv)
{
    LoadOptions options;
    if (!parse_args(argc, argv, options))
        return 2;

    bench::begin_report(
        "serve_load",
        "closed-loop load test of the chrysalis-serve-v1 daemon", true,
        "serve_load");
    bench::print_banner(
        "serve_load",
        "closed-loop load test of the chrysalis-serve-v1 daemon");

    if (options.chaos && options.port != 0)
        fatal("--chaos requires the in-process server (omit --port): "
              "the injector hooks the server");
    const std::uint64_t chaos_seed =
        options.chaos_seed != 0 ? options.chaos_seed
                                : options.seed + 7791;

    // The chaos injector outlives the server that borrows it.
    std::unique_ptr<fault::NetFaultInjector> chaos;
    if (options.chaos) {
        chaos = std::make_unique<fault::NetFaultInjector>(
            chaos_spec(chaos_seed));
        std::printf("chaos: %s\n", chaos->describe().c_str());
    }

    // Target server: external (--port) or in-process.
    std::unique_ptr<serve::Server> own_server;
    int port = options.port;
    if (port == 0) {
        serve::ServerOptions server_options;
        server_options.host = options.host;
        server_options.threads = options.threads;
        server_options.chaos = chaos.get();
        own_server = std::make_unique<serve::Server>(server_options);
        own_server->start();
        port = own_server->port();
        std::printf("in-process server on %s:%d (%d threads)\n",
                    options.host.c_str(), port, options.threads);
    } else {
        std::printf("targeting external server %s:%d\n",
                    options.host.c_str(), port);
    }

    const std::vector<WorkItem> workload = build_workload(options);
    const std::size_t total = workload.size();
    std::vector<std::string> replies(total);
    std::vector<double> latencies(total, 0.0);
    std::atomic<std::size_t> cursor{0};
    std::atomic<int> transport_failures{0};
    serve::RetryStats retry_totals;
    Mutex retry_totals_mutex;

    // Closed loop: each client thread owns one connection and pulls the
    // next unsent request until the shared cursor runs out. Under chaos
    // the resilient request() path does the surviving: reconnects,
    // retries (all chaos-mode types are memoized, hence retry-safe),
    // deterministic backoff.
    runtime::ThreadPool clients(options.clients);
    obs::SpanTimer wall("bench/serve_load");
    clients.parallel_for(
        static_cast<std::size_t>(options.clients),
        [&](std::size_t client_index) {
            serve::ClientOptions client_options;
            client_options.connect_timeout_s = 5.0;
            client_options.request_timeout_s = 20.0;
            client_options.max_attempts = options.chaos ? 16 : 1;
            client_options.backoff_base_s = 0.002;
            client_options.backoff_max_s = 0.1;
            // The breaker stays out of the gate run: under a lossy
            // schedule it would fast-fail requests the gate requires
            // to eventually succeed. Its behavior is unit-tested.
            client_options.circuit_breaker_threshold = 0;
            client_options.retry_seed = chaos_seed + 100 + client_index;
            serve::Client client(client_options);
            if (!client.connect(options.host, port) &&
                !options.chaos) {
                transport_failures.fetch_add(1);
                return;
            }
            while (true) {
                const std::size_t i = cursor.fetch_add(1);
                if (i >= total)
                    break;
                obs::SpanTimer timer("bench/request");
                if (options.chaos) {
                    client.set_next_id(static_cast<std::uint64_t>(i) + 1);
                    serve::Response response;
                    const serve::CallStatus status = client.request(
                        workload[i].type, workload[i].params, response);
                    if (status != serve::CallStatus::kOk) {
                        std::fprintf(stderr,
                                     "request id %zu lost: %s\n", i + 1,
                                     serve::to_string(status));
                        transport_failures.fetch_add(1);
                        continue;
                    }
                    latencies[i] = timer.elapsed_s();
                    replies[i] = response.raw;
                    continue;
                }
                std::string reply;
                if (!client.send_frame(workload[i].payload) ||
                    !client.recv_frame(reply)) {
                    transport_failures.fetch_add(1);
                    return;
                }
                latencies[i] = timer.elapsed_s();
                replies[i] = std::move(reply);
            }
            MutexLock lock(retry_totals_mutex);
            const serve::RetryStats& stats = client.retry_stats();
            retry_totals.attempts += stats.attempts;
            retry_totals.retries += stats.retries;
            retry_totals.reconnects += stats.reconnects;
            retry_totals.timeouts += stats.timeouts;
            retry_totals.transport_errors += stats.transport_errors;
            retry_totals.protocol_errors += stats.protocol_errors;
        });
    const double wall_s = wall.elapsed_s();

    std::size_t completed = 0;
    std::size_t error_replies = 0;
    for (const std::string& reply : replies) {
        if (reply.empty())
            continue;
        ++completed;
        if (reply.find("\"ok\":0") != std::string::npos)
            ++error_replies;
    }

    // Cache-hit rate straight from the server.
    double cache_hit_rate = 0.0;
    std::uint64_t cache_hits = 0;
    {
        serve::Client probe(patient_client_options());
        serve::Response stats;
        if (probe.connect(options.host, port) &&
            probe.call("server_stats", {}, stats) && stats.ok) {
            json_get_double(stats.fields, "cache_hit_rate",
                            cache_hit_rate);
            json_get_uint64(stats.fields, "cache_hits", cache_hits);
        }
    }

    std::vector<double> sorted;
    sorted.reserve(completed);
    for (std::size_t i = 0; i < total; ++i) {
        if (!replies[i].empty())
            sorted.push_back(latencies[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    const double p50 = percentile(sorted, 0.50);
    const double p95 = percentile(sorted, 0.95);
    const double p99 = percentile(sorted, 0.99);
    const double throughput =
        wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;

    std::printf("%zu/%zu requests completed in %.3f s "
                "(%.1f req/s, %zu error replies)\n",
                completed, total, wall_s, throughput, error_replies);
    std::printf("latency p50 %.6f s  p95 %.6f s  p99 %.6f s\n", p50, p95,
                p99);
    std::printf("cache hit rate %.3f (%llu hits)\n", cache_hit_rate,
                static_cast<unsigned long long>(cache_hits));

    // Determinism gate: replay every eval request serially against a
    // fresh single-threaded server; identical request bytes must yield
    // identical reply bytes. server_stats replies report live state and
    // are exempt by design.
    std::size_t mismatches = 0;
    if (options.verify) {
        serve::ServerOptions reference_options;
        reference_options.host = "127.0.0.1";
        reference_options.threads = 1;
        serve::Server reference(reference_options);
        reference.start();
        serve::Client client(patient_client_options());
        if (!client.connect("127.0.0.1", reference.port()))
            fatal("cannot connect to the reference server");
        for (std::size_t i = 0; i < total; ++i) {
            if (replies[i].empty() ||
                workload[i].type == "server_stats")
                continue;
            std::string reply;
            if (!client.send_frame(workload[i].payload) ||
                !client.recv_frame(reply))
                fatal("reference server dropped a request");
            if (reply != replies[i]) {
                if (++mismatches <= 3)
                    std::fprintf(stderr,
                                 "MISMATCH on id %zu:\n  loaded:    "
                                 "%s\n  reference: %s\n",
                                 i + 1, replies[i].c_str(),
                                 reply.c_str());
            }
        }
        reference.stop();
        std::printf("determinism check: %zu mismatches\n", mismatches);
    }

    if (own_server != nullptr)
        own_server->stop();

    bench::headline("requests_completed", static_cast<double>(completed));
    bench::headline("throughput_rps", throughput);
    bench::headline("latency_p50_s", p50);
    bench::headline("latency_p95_s", p95);
    bench::headline("latency_p99_s", p99);
    bench::headline("cache_hit_rate", cache_hit_rate);
    bench::headline("error_replies", static_cast<double>(error_replies));
    bench::headline("dropped_connections",
                    static_cast<double>(transport_failures.load()));
    bench::headline("determinism_mismatches",
                    static_cast<double>(mismatches));
    bench::headline("chaos_enabled", options.chaos ? 1.0 : 0.0);
    if (options.chaos) {
        bench::headline("client_attempts",
                        static_cast<double>(retry_totals.attempts));
        bench::headline("client_retries",
                        static_cast<double>(retry_totals.retries));
        bench::headline("client_reconnects",
                        static_cast<double>(retry_totals.reconnects));
        bench::headline("client_timeouts",
                        static_cast<double>(retry_totals.timeouts));
        bench::headline(
            "client_transport_errors",
            static_cast<double>(retry_totals.transport_errors));
        const fault::NetFaultInjector::ActivationCounts hits =
            chaos->activation_counts();
        bench::headline("chaos_torn_writes",
                        static_cast<double>(hits.torn_writes));
        bench::headline("chaos_resets", static_cast<double>(hits.resets));
        bench::headline("chaos_read_delays",
                        static_cast<double>(hits.read_delays));
        bench::headline("chaos_connect_refusals",
                        static_cast<double>(hits.connect_refusals));
        bench::headline("chaos_accept_stalls",
                        static_cast<double>(hits.accept_stalls));
        bench::headline("chaos_activations_total",
                        static_cast<double>(hits.total()));
        std::printf("chaos: %llu retries, %llu reconnects, %llu "
                    "timeouts over %llu activations\n",
                    static_cast<unsigned long long>(
                        retry_totals.retries),
                    static_cast<unsigned long long>(
                        retry_totals.reconnects),
                    static_cast<unsigned long long>(
                        retry_totals.timeouts),
                    static_cast<unsigned long long>(hits.total()));
    }

    // The gates are identical with and without chaos: every request
    // completed (under chaos: *eventually*, through retries), no
    // request-level failures, and byte-identical replies versus the
    // chaos-free single-threaded reference.
    const bool pass = completed == total &&
                      transport_failures.load() == 0 && mismatches == 0;
    std::printf("%s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
