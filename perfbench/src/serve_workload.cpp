/// \file
/// serve_mixed: an in-process serve::Server driven by closed-loop
/// serve::Client connections, each waiting for its reply before sending
/// the next request.

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/flat_json.hpp"
#include "common/logging.hpp"
#include "dnn/model_zoo.hpp"
#include "generator.hpp"
#include "hw/accelerator.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace {

/// Traced and untraced requests alternate in windows this long, so the
/// trace overhead is measured against the same load and memo state.
constexpr double kTraceWindowS = 0.25;
/// Every kSampleStride-th request is kept for the output check.
constexpr std::uint64_t kSampleStride = 53;
constexpr std::size_t kSamplesPerClient = 48;
constexpr std::size_t kProbedRequests = 24;
/// Warm-up traffic before the window: its length, and the request index
/// it starts from, past any index a window reaches.
constexpr double kWarmUpS = 2.0;
constexpr std::uint64_t kWarmUpFirstIndex = std::uint64_t{1} << 40;

struct Sample {
    std::string type;
    FlatJsonFields params;
    std::uint64_t id = 0;
    std::string reply;
};

/// What one client thread measured, in sums so its memory stays flat.
struct ClientLog {
    double latency_sum_s = 0.0;  ///< untraced requests
    std::uint64_t latency_count = 0;
    double traced_sum_s = 0.0;   ///< traced requests
    std::uint64_t traced_count = 0;
    double stage_sum_s[4] = {};  ///< queue, decode, eval, encode
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    std::uint64_t hot = 0;
    std::vector<Sample> samples;
};

struct Harness {
    std::unique_ptr<serve::Server> server;
    std::vector<serve::Client> clients;
};

Harness
start_harness(const ServePlan& plan)
{
    serve::ServerOptions server_options;
    server_options.threads = plan.server_threads;
    server_options.cache_capacity = plan.memo_capacity;
    Harness harness;
    harness.server = std::make_unique<serve::Server>(server_options);
    harness.server->start();
    for (int c = 0; c < plan.clients; ++c) {
        serve::Client client;
        if (!client.connect("127.0.0.1", harness.server->port()))
            fatal("serve_mixed: cannot connect to the in-process server");
        harness.clients.push_back(std::move(client));
    }
    // Warm the memo with the hot set, as a long-running server would be.
    for (std::size_t slot = 0; slot < plan.hot_count; ++slot) {
        const ServeRequest request = hot_request(plan, slot);
        serve::Response response;
        if (harness.clients[slot % harness.clients.size()].request(
                request.type, request.params, response) !=
                serve::CallStatus::kOk ||
            !response.ok)
            fatal("serve_mixed: warm-up request failed: ", response.error);
    }
    return harness;
}

void
client_loop(const ServePlan& plan, serve::Client& client, int index,
            std::uint64_t first_index, double start_s, double deadline_s,
            bool trace, Tracer& tracer, EndToEndRecorder& recorder,
            ClientLog& log)
{
    for (std::uint64_t k = 0;; ++k) {
        const std::uint64_t request_index =
            first_index + static_cast<std::uint64_t>(index) +
            k * static_cast<std::uint64_t>(plan.clients);
        ServeRequest request = serve_request(plan, request_index);
        const double send_s = now_s();
        if (send_s >= deadline_s)
            break;
        const bool traced =
            trace &&
            static_cast<std::int64_t>((send_s - start_s) / kTraceWindowS) % 2 ==
                1;
        if (traced) {
            obs::TraceContext context;
            context.trace_id = request_index + 1;
            request.params["trace"] = obs::format_trace_field(context);
        }
        const std::uint64_t id = client.next_id();
        serve::Response response;
        serve::CallStatus status;
        {
            std::optional<Span> span;
            if (traced)
                span.emplace(tracer, "serve.request", request_index);
            status = client.request(request.type, request.params, response);
        }
        const double latency_s = now_s() - send_s;
        ++log.sent;
        if (request.hot)
            ++log.hot;
        if (status != serve::CallStatus::kOk || !response.ok) {
            ++log.failed;
            continue;
        }
        if (!traced) {
            log.latency_sum_s += latency_s;
            ++log.latency_count;
            recorder.record(send_s + latency_s, latency_s, 1.0);
        } else {
            log.traced_sum_s += latency_s;
            ++log.traced_count;
            static const char* const kStages[] = {
                "timing_queue_s", "timing_decode_s", "timing_eval_s",
                "timing_encode_s"};
            for (int stage = 0; stage < 4; ++stage) {
                double value = 0.0;
                json_get_double(response.fields, kStages[stage], value);
                log.stage_sum_s[stage] += value;
            }
        }
        if (request_index % kSampleStride == 0 &&
            log.samples.size() < kSamplesPerClient) {
            request.params.erase("trace");
            log.samples.push_back(
                {request.type, request.params, id, response.raw});
        }
    }
}

FlatJsonFields
without_timing(FlatJsonFields fields)
{
    for (auto it = fields.begin(); it != fields.end();) {
        it = it->first.rfind("timing_", 0) == 0 ? fields.erase(it)
                                                 : std::next(it);
    }
    return fields;
}

/// Replays a sampled request through serve::handle_request_body
/// directly; empty when the server's reply matches it.
std::string
check_sample(const Sample& sample)
{
    serve::Client builder;
    builder.set_next_id(sample.id);
    FlatJsonFields request;
    if (!scan_flat_json(builder.build_request(sample.type, sample.params),
                        request))
        return "cannot rebuild request " + std::to_string(sample.id);
    const std::string expected = serve::finish_response(
        sample.id, serve::handle_request_body(request, nullptr,
                                              serve::ServerStatsSnapshot{}));
    FlatJsonFields want;
    FlatJsonFields got;
    if (!scan_flat_json(expected, want) || !scan_flat_json(sample.reply, got))
        return "unparsable reply to request " + std::to_string(sample.id);
    if (without_timing(want) != without_timing(got))
        return "reply to request " + std::to_string(sample.id) + " (" +
               sample.type + ") differs from handle_request_body: got " +
               sample.reply + ", expected " + expected;
    return "";
}

/// The handler's decoding of an eval request, for the layer probes.
search::BiLevelExplorer
explorer_for(const ServeRequest& request, search::HwCandidate& candidate)
{
    const FlatJsonFields& p = request.params;
    search::DesignSpace space = p.at("space") == "future"
                                    ? search::DesignSpace::future_aut()
                                    : search::DesignSpace::existing_aut();
    search::Objective objective;
    const std::string& kind = p.at("objective");
    objective.kind = kind == "lat"  ? search::ObjectiveKind::kLatency
                     : kind == "sp" ? search::ObjectiveKind::kSolarPanel
                                    : search::ObjectiveKind::kLatSp;
    search::ExplorerOptions options;
    options.cache_capacity = 0;
    options.inner.seed = std::stoull(p.at("seed"));
    candidate = space.defaults;
    candidate.solar_cm2 = std::stod(p.at("solar_cm2"));
    candidate.capacitance_f = std::stod(p.at("capacitance_f"));
    candidate.arch = hw::accelerator_arch_from_string(p.at("arch"));
    candidate.n_pe = std::stoll(p.at("n_pe"));
    candidate.cache_bytes = std::stoll(p.at("cache_bytes"));
    return search::BiLevelExplorer(dnn::make_model(p.at("model")), space,
                                   objective, options);
}

}  // namespace

Report
run_serve_workload(const RunOptions& options, Tracer& tracer)
{
    Report report;
    std::vector<double> setups_s;
    ServePlan plan;
    Harness harness;
    for (int repetition = 0; repetition < kSetupRepetitions; ++repetition) {
        if (harness.server)
            harness.server->stop();
        harness = Harness{};
        const double start = now_s();
        plan = make_serve_plan(options.seed);
        harness = start_harness(plan);
        setups_s.push_back(now_s() - start);
    }

    // Drives the clients from request index first_index for the window
    // [start_s, start_s + seconds).
    const auto drive = [&](std::uint64_t first_index, double start_s,
                           double seconds, bool trace,
                           EndToEndRecorder& recorder,
                           std::vector<ClientLog>& logs) {
        std::vector<std::thread> threads;
        for (int c = 0; c < plan.clients; ++c) {
            threads.emplace_back([&, c, start_s] {
                client_loop(plan, harness.clients[static_cast<std::size_t>(c)],
                            c, first_index, start_s, start_s + seconds, trace,
                            tracer, recorder, logs[static_cast<std::size_t>(c)]);
            });
        }
        for (auto& thread : threads)
            thread.join();
    };
    {
        // Warm-up traffic before the window, on request indices the
        // window never reaches, so the memo holds fresh points as well as
        // the hot set and evicts as it will in the window.
        std::vector<ClientLog> logs(static_cast<std::size_t>(plan.clients));
        const double start_s = now_s();
        EndToEndRecorder recorder(start_s, kWarmUpS, false, plan.tail_q);
        drive(kWarmUpFirstIndex, start_s, kWarmUpS, false, recorder, logs);
        for (const auto& log : logs) {
            if (log.failed != 0)
                fatal("serve_mixed: a warm-up request failed");
        }
    }

    const serve::ServerStatsSnapshot before = harness.server->stats();
    std::vector<ClientLog> logs(static_cast<std::size_t>(plan.clients));
    tracer.enabled = options.trace;
    const double start_s = now_s();
    EndToEndRecorder recorder(start_s, options.seconds, false, plan.tail_q);
    const double cpu_start = process_cpu_s();
    drive(0, start_s, options.seconds, options.trace, recorder, logs);
    const double busy_s = now_s() - start_s;
    const double cpu_s = process_cpu_s() - cpu_start;
    tracer.enabled = false;
    const serve::ServerStatsSnapshot after = harness.server->stats();
    harness.clients.clear();
    harness.server->stop();

    ClientLog all;
    for (const auto& log : logs) {
        all.latency_sum_s += log.latency_sum_s;
        all.latency_count += log.latency_count;
        all.traced_sum_s += log.traced_sum_s;
        all.traced_count += log.traced_count;
        for (int stage = 0; stage < 4; ++stage)
            all.stage_sum_s[stage] += log.stage_sum_s[stage];
        all.sent += log.sent;
        all.failed += log.failed;
        all.hot += log.hot;
        all.samples.insert(all.samples.end(), log.samples.begin(),
                           log.samples.end());
    }
    report.attempted = all.sent;
    report.failed = all.failed;

    // Output check, outside the measured window.
    for (const auto& sample : all.samples) {
        report.check_error = check_sample(sample);
        if (!report.check_error.empty())
            return report;
    }

    const double requests = static_cast<double>(
        after.requests_total - before.requests_total);
    const double lookups = static_cast<double>(
        (after.cache.hits - before.cache.hits) +
        (after.cache.misses - before.cache.misses));
    const std::uint64_t fresh = all.sent - all.hot;
    report.property("clients", std::to_string(plan.clients) +
                                   " closed-loop connections");
    report.property("server_threads", std::to_string(plan.server_threads));
    report.property("serve_repeat_share",
                    std::to_string(ratio(static_cast<double>(all.hot),
                                         static_cast<double>(all.sent))));
    report.property("distinct_keys",
                    std::to_string(plan.hot_count + fresh) + " (" +
                        std::to_string(plan.hot_count) + " hot + " +
                        std::to_string(fresh) + " fresh) against memo "
                        "capacity " + std::to_string(plan.memo_capacity));
    report.property("checked_replies", std::to_string(all.samples.size()));
    report.add("serve.memo_hit_ratio",
               ratio(static_cast<double>(after.cache.hits - before.cache.hits),
                     lookups),
               "ratio");
    report.add("serve.batch_mean",
               ratio(requests,
                     static_cast<double>(after.batches - before.batches)),
               "count");
    report.add("serve.overload_ratio",
               ratio(static_cast<double>(after.overload_rejections -
                                         before.overload_rejections),
                     requests),
               "ratio");
    report.add("runtime.cpu_per_wall", ratio(cpu_s, busy_s), "ratio");
    if (!options.trace) {
        recorder.report(report, setups_s);
        return report;
    }

    const double traced_latency_s =
        ratio(all.traced_sum_s, static_cast<double>(all.traced_count));
    double stages_s = 0.0;
    static const char* const kNames[] = {"serve.queue_wait_us",
                                         "serve.decode_us", "serve.eval_us",
                                         "serve.encode_us"};
    for (int stage = 0; stage < 4; ++stage) {
        const double value = ratio(all.stage_sum_s[stage],
                                   static_cast<double>(all.traced_count));
        report.add(kNames[stage], value * 1e6, "us");
        stages_s += value;
    }
    report.add("serve.transport_us", (traced_latency_s - stages_s) * 1e6,
               "us");
    report.reconcile("serve latency = queue + decode + eval + encode + "
                     "transport",
                     traced_latency_s, stages_s, "transport");
    report.add("obs.trace_overhead_ratio",
               ratio(traced_latency_s,
                     ratio(all.latency_sum_s,
                           static_cast<double>(all.latency_count))) -
                   1.0,
               "ratio");

    LayerProbe probe(tracer);
    tracer.enabled = true;
    for (std::uint64_t index = 0; index < kProbedRequests; ++index) {
        const ServeRequest request = serve_request(plan, index);
        probe.probe_make_model(request.params.at("model"));
        search::HwCandidate candidate;
        const search::BiLevelExplorer explorer =
            explorer_for(request, candidate);
        probe.probe_design(explorer, candidate, index);
        if (request.type == "sim_step")
            probe.probe_simulate(explorer, candidate, index);
    }
    probe.probe_pool();
    tracer.enabled = false;
    probe.report(report);
    return report;
}

}  // namespace perfbench
