#include "serve/handlers.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/string_utils.hpp"
#include "core/campaign.hpp"
#include "core/campaign_spec.hpp"
#include "core/chrysalis.hpp"
#include "dnn/model_zoo.hpp"
#include "fault/fault_injector.hpp"
#include "hw/accelerator.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace chrysalis::serve {
namespace {

// ---- body builders -------------------------------------------------------
// A body is the comma-joined field list *between* the braces; the
// leading comma logic therefore keys on emptiness, not on '{'.

void
body_raw(std::string& body, const char* name, const std::string& value)
{
    if (!body.empty())
        body += ',';
    body += '"';
    body += name;
    body += "\":";
    body += value;
}

void
body_str(std::string& body, const char* name, const std::string& value)
{
    if (!body.empty())
        body += ',';
    body += '"';
    body += name;
    body += "\":";
    json_append_escaped(body, value);
}

void
body_f64(std::string& body, const char* name, double value)
{
    body_raw(body, name, format_double_17g(value));
}

void
body_i64(std::string& body, const char* name, std::int64_t value)
{
    body_raw(body, name, std::to_string(value));
}

void
body_u64(std::string& body, const char* name, std::uint64_t value)
{
    body_raw(body, name, std::to_string(value));
}

void
body_flag(std::string& body, const char* name, bool value)
{
    body_raw(body, name, value ? "1" : "0");
}

// ---- strict field access -------------------------------------------------
// Absent fields fall back to their default; present-but-unparsable
// fields are a client error and fatal() (converted to a bad_request
// reply by the dispatch wrapper) instead of being silently ignored.

double
field_double(const FlatJsonFields& fields, const char* name, double fallback)
{
    if (fields.find(name) == fields.end())
        return fallback;
    double out = 0.0;
    if (!json_get_double(fields, name, out))
        fatal("request field \"", name, "\" is not a number");
    return out;
}

std::int64_t
field_int64(const FlatJsonFields& fields, const char* name,
            std::int64_t fallback)
{
    if (fields.find(name) == fields.end())
        return fallback;
    std::int64_t out = 0;
    if (!json_get_int64(fields, name, out))
        fatal("request field \"", name, "\" is not an integer");
    return out;
}

std::uint64_t
field_uint64(const FlatJsonFields& fields, const char* name,
             std::uint64_t fallback)
{
    if (fields.find(name) == fields.end())
        return fallback;
    std::uint64_t out = 0;
    if (!json_get_uint64(fields, name, out))
        fatal("request field \"", name,
              "\" is not a non-negative integer");
    return out;
}

std::string
field_string(const FlatJsonFields& fields, const char* name,
             std::string fallback)
{
    std::string out;
    if (json_get_string(fields, name, out))
        return out;
    return fallback;
}

// ---- request decoding ----------------------------------------------------

/// Everything an eval-type handler needs, decoded from request fields.
struct EvalRequest {
    explicit EvalRequest(dnn::Model workload) : model(std::move(workload))
    {}

    dnn::Model model;
    search::DesignSpace space;
    search::Objective objective;
    search::ExplorerOptions options;
    search::HwCandidate candidate;
    /// Owns the injector `options.faults` / `sim.faults` point at.
    std::unique_ptr<fault::FaultInjector> faults;
    sim::SimConfig sim;
    int runs = 3;  ///< sim_step validation repetitions
};

EvalRequest
parse_eval_request(const FlatJsonFields& fields)
{
    EvalRequest request(
        dnn::make_model(field_string(fields, "model", "kws")));

    const std::string space = field_string(fields, "space", "existing");
    if (space == "existing")
        request.space = search::DesignSpace::existing_aut();
    else if (space == "future")
        request.space = search::DesignSpace::future_aut();
    else
        fatal("unknown space '", space, "' (expected existing|future)");

    const std::string objective =
        field_string(fields, "objective", "latsp");
    if (objective == "lat")
        request.objective.kind = search::ObjectiveKind::kLatency;
    else if (objective == "sp")
        request.objective.kind = search::ObjectiveKind::kSolarPanel;
    else if (objective == "latsp")
        request.objective.kind = search::ObjectiveKind::kLatSp;
    else
        fatal("unknown objective '", objective,
              "' (expected lat|sp|latsp)");
    request.objective.sp_limit_cm2 =
        field_double(fields, "sp_limit", request.objective.sp_limit_cm2);
    request.objective.lat_limit_s =
        field_double(fields, "lat_limit", request.objective.lat_limit_s);

    const double bright = field_double(fields, "bright", 2.0e-3);
    const double dark = field_double(fields, "dark", 0.5e-3);
    request.options.k_eh_envs = {bright, dark};

    const std::uint64_t seed = field_uint64(fields, "seed", 1);
    request.options.inner.seed = seed;
    request.options.inner.max_candidates_per_dim =
        static_cast<std::size_t>(field_int64(
            fields, "mapping_candidates",
            static_cast<std::int64_t>(
                request.options.inner.max_candidates_per_dim)));
    // The handler evaluates exactly one candidate; the per-request memo
    // inside the explorer would never hit and the server already shares
    // a response-level cache across connections.
    request.options.cache_capacity = 0;

    request.candidate = request.space.defaults;
    request.candidate.solar_cm2 = field_double(
        fields, "solar_cm2", request.candidate.solar_cm2);
    request.candidate.capacitance_f = field_double(
        fields, "capacitance_f", request.candidate.capacitance_f);
    const std::string arch = field_string(fields, "arch", "");
    if (!arch.empty())
        request.candidate.arch = hw::accelerator_arch_from_string(arch);
    request.candidate.n_pe =
        field_int64(fields, "n_pe", request.candidate.n_pe);
    request.candidate.cache_bytes =
        field_int64(fields, "cache_bytes", request.candidate.cache_bytes);

    fault::FaultSpec spec;
    spec.seed = seed;
    spec.dropout_probability =
        field_double(fields, "fault_dropout", 0.0);
    spec.mission_age_years = field_double(fields, "fault_age", 0.0);
    spec.ckpt_corruption_rate = field_double(fields, "fault_ckpt", 0.0);
    if (spec.any_active()) {
        spec.validate();
        request.faults = std::make_unique<fault::FaultInjector>(spec);
        request.options.faults = request.faults.get();
    }

    request.sim.seed = seed;
    request.sim.step_s = field_double(fields, "step_s", request.sim.step_s);
    request.sim.exception_rate = field_double(
        fields, "exception_rate", request.sim.exception_rate);
    request.sim.faults = request.options.faults;
    request.runs = static_cast<int>(field_int64(fields, "runs", 3));
    if (request.runs < 1)
        fatal("request field \"runs\" must be >= 1");
    return request;
}

// ---- per-type handlers ---------------------------------------------------

std::string
eval_design_point_body(const FlatJsonFields& fields)
{
    const EvalRequest request = parse_eval_request(fields);
    const core::Chrysalis tool({request.model, request.space,
                                request.objective, request.options});
    const core::AuTSolution solution =
        tool.evaluate_candidate(request.candidate);

    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "eval_design_point");
    body_flag(body, "feasible", solution.feasible);
    body_f64(body, "score", solution.score);
    body_f64(body, "mean_latency_s", solution.mean_latency_s);
    body_f64(body, "lat_sp", solution.lat_sp);
    body_f64(body, "e_all_j", solution.cost.total_energy_j());
    body_i64(body, "n_tile", solution.cost.n_tile);
    // Echo the (clamped) candidate that was actually evaluated.
    body_f64(body, "solar_cm2", solution.hardware.solar_cm2);
    body_f64(body, "capacitance_f", solution.hardware.capacitance_f);
    body_str(body, "arch", hw::to_string(solution.hardware.arch));
    body_i64(body, "n_pe", solution.hardware.n_pe);
    body_i64(body, "cache_bytes", solution.hardware.cache_bytes);
    body_str(body, "failure",
             std::string(fault::to_string(solution.failure.code)));
    return body;
}

std::string
eval_mapping_body(const FlatJsonFields& fields)
{
    const EvalRequest request = parse_eval_request(fields);
    const search::BiLevelExplorer explorer(
        request.model, request.space, request.objective, request.options);
    const search::EvaluatedDesign design =
        explorer.evaluate(request.candidate);

    // Compact per-layer rendering: "<dataflow>:KxYxN" joined by ';'.
    std::string mappings;
    for (const auto& mapping : design.mapping.mappings) {
        if (!mappings.empty())
            mappings += ';';
        mappings += dataflow::to_string(mapping.dataflow);
        mappings += ':';
        mappings += std::to_string(mapping.tiles_k);
        mappings += 'x';
        mappings += std::to_string(mapping.tiles_y);
        mappings += 'x';
        mappings += std::to_string(mapping.tiles_n);
    }

    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "eval_mapping");
    body_flag(body, "feasible", design.mapping.feasible);
    body_f64(body, "time_s", design.mapping.cost.time_s);
    body_f64(body, "e_all_j", design.mapping.cost.total_energy_j());
    body_f64(body, "max_tile_energy_j",
             design.mapping.cost.max_tile_energy_j());
    body_i64(body, "n_tile", design.mapping.cost.n_tile);
    body_f64(body, "violation_j", design.mapping.violation_j);
    body_i64(body, "evaluations", design.mapping.evaluations);
    body_u64(body, "layers", design.mapping.mappings.size());
    body_str(body, "mappings", mappings);
    body_str(body, "failure",
             std::string(fault::to_string(design.mapping.failure.code)));
    return body;
}

std::string
sim_step_body(const FlatJsonFields& fields)
{
    const EvalRequest request = parse_eval_request(fields);
    const core::Chrysalis tool({request.model, request.space,
                                request.objective, request.options});
    const core::AuTSolution solution =
        tool.evaluate_candidate(request.candidate);

    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "sim_step");
    body_flag(body, "feasible", solution.feasible);
    if (!solution.feasible) {
        // No mapping to replay; report why instead of simulating.
        body_flag(body, "completed", false);
        body_str(body, "failure",
                 std::string(fault::to_string(solution.failure.code)));
        return body;
    }

    const core::ValidationResult validation = tool.validate(
        solution, request.options.k_eh_envs.front(), request.sim,
        request.runs);
    body_flag(body, "completed", validation.sim.completed);
    body_f64(body, "mean_sim_latency_s", validation.mean_sim_latency_s);
    body_f64(body, "analytic_latency_s", validation.analytic_latency_s);
    body_f64(body, "relative_error", validation.relative_error);
    body_i64(body, "steps", validation.sim.steps);
    body_i64(body, "tiles_total", validation.sim.tiles_total);
    body_i64(body, "tiles_executed", validation.sim.tiles_executed);
    body_i64(body, "exceptions", validation.sim.exceptions);
    body_i64(body, "energy_cycles", validation.sim.energy_cycles);
    body_i64(body, "power_offs", validation.sim.power_offs);
    body_i64(body, "ckpt_saves", validation.sim.ckpt_saves);
    body_i64(body, "ckpt_restores", validation.sim.ckpt_restores);
    body_i64(body, "ckpt_corruptions", validation.sim.ckpt_corruptions);
    body_f64(body, "e_all_j", validation.sim.e_all_j());
    body_str(body, "failure",
             std::string(fault::to_string(validation.sim.failure.code)));
    return body;
}

/// Executes one whole campaign case — the distributed coordinator's
/// unit of work. The reply carries the case's *deterministic* journal
/// record (wall times zeroed, doubles in %.17g): because the worker
/// runs the exact run_campaign_case code path a local campaign uses,
/// and the volatile fields are stripped, the body is a pure function of
/// the request fields and the merged campaign output stays
/// byte-identical at any worker count.
std::string
run_case_body(const FlatJsonFields& fields)
{
    const core::CampaignSpec spec = core::spec_from_fields(fields);
    std::uint64_t case_index = 0;
    if (!json_get_uint64(fields, "case_index", case_index))
        fatal("request field \"case_index\" is missing or not a "
              "non-negative integer");
    if (case_index >= static_cast<std::uint64_t>(spec.cases))
        fatal("request field \"case_index\" (", case_index,
              ") exceeds the campaign's ", spec.cases, " cases");

    // Workers resolve the workload by zoo name only: a model *file*
    // lives on the coordinator's disk and could not be resolved
    // identically here.
    const dnn::Model model = dnn::make_model(spec.model);
    const core::CampaignCase campaign_case = core::build_campaign_case(
        spec, model, static_cast<std::size_t>(case_index));
    std::unique_ptr<fault::FaultInjector> faults;
    const search::ExplorerOptions options =
        core::build_explorer_options(spec, faults);
    const core::CampaignEntry entry = core::run_campaign_case(
        campaign_case, options, static_cast<std::size_t>(case_index),
        spec.max_attempts);
    const core::JournalRecord record = core::deterministic_record(
        core::to_journal_record(entry, ""));

    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "run_case");
    body_u64(body, "case_index", case_index);
    core::append_record_fields(body, record);
    return body;
}

std::string
server_stats_body(const ServerStatsSnapshot& stats)
{
    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "server_stats");
    body_u64(body, "connections_open", stats.connections_open);
    body_u64(body, "connections_total", stats.connections_total);
    body_u64(body, "requests_total", stats.requests_total);
    body_u64(body, "requests_eval_design_point",
             stats.requests_eval_design_point);
    body_u64(body, "requests_eval_mapping", stats.requests_eval_mapping);
    body_u64(body, "requests_sim_step", stats.requests_sim_step);
    body_u64(body, "requests_run_case", stats.requests_run_case);
    body_u64(body, "requests_server_stats", stats.requests_server_stats);
    body_u64(body, "requests_health", stats.requests_health);
    body_u64(body, "errors_total", stats.errors_total);
    body_u64(body, "overload_rejections", stats.overload_rejections);
    body_u64(body, "batches", stats.batches);
    body_u64(body, "max_batch", stats.max_batch);
    body_u64(body, "pending", stats.pending);
    body_u64(body, "timeouts_read", stats.timeouts_read);
    body_u64(body, "timeouts_idle", stats.timeouts_idle);
    body_u64(body, "slow_consumer_closes", stats.slow_consumer_closes);
    body_flag(body, "draining", stats.draining);
    body_i64(body, "threads", stats.threads);
    body_u64(body, "cache_hits", stats.cache.hits);
    body_u64(body, "cache_misses", stats.cache.misses);
    body_u64(body, "cache_insertions", stats.cache.insertions);
    body_u64(body, "cache_evictions", stats.cache.evictions);
    body_u64(body, "cache_entries", stats.cache.entries);
    body_u64(body, "cache_capacity", stats.cache.capacity);
    body_f64(body, "cache_hit_rate", stats.cache.hit_rate());
    body_str(body, "worker_id", stats.worker_id);
    body_f64(body, "uptime_seconds", stats.uptime_seconds);
    body_u64(body, "requests_metrics_snapshot",
             stats.requests_metrics_snapshot);
    body_u64(body, "requests_trace_export", stats.requests_trace_export);
    body_u64(body, "latency_count", stats.latency_count);
    body_f64(body, "latency_p50_s", stats.latency_p50_s);
    body_f64(body, "latency_p95_s", stats.latency_p95_s);
    body_f64(body, "latency_p99_s", stats.latency_p99_s);
    return body;
}

/// Readiness/drain probe for load balancers and deploy scripts: cheap
/// (never evaluates anything, never cached) and honest during shutdown
/// — requests admitted before stop() still drain, but a draining reply
/// tells the client to take new traffic elsewhere.
std::string
health_body(const ServerStatsSnapshot& stats)
{
    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "health");
    body_str(body, "status", stats.draining ? "draining" : "ready");
    body_str(body, "worker_id", stats.worker_id);
    body_flag(body, "draining", stats.draining);
    body_u64(body, "connections_open", stats.connections_open);
    body_u64(body, "pending", stats.pending);
    body_i64(body, "threads", stats.threads);
    // This process's monotonic_seconds() at reply time — the raw
    // material for the coordinator's RTT-midpoint clock-offset
    // estimate (obs::clock_offset_from_probe).
    body_f64(body, "mono_now_s", obs::monotonic_seconds());
    return body;
}

// ---- fleet telemetry pulls -----------------------------------------------
// Bounded, cursor-resumable: a pulled page always fits the 1 MiB frame
// limit regardless of how much the worker has buffered. Cursors come
// from a previous reply's `cursor_next`; `remaining == 0` means
// drained. Both types report live state: never cached, never retried.

constexpr std::uint64_t kSnapshotMaxEntriesDefault = 128;
constexpr std::uint64_t kSnapshotMaxEntriesCap = 2048;
constexpr std::uint64_t kExportMaxEventsDefault = 512;
constexpr std::uint64_t kExportMaxEventsCap = 4096;

std::string
metrics_snapshot_body(const FlatJsonFields& fields,
                      const TelemetrySources& telemetry,
                      const ServerStatsSnapshot& stats)
{
    const std::uint64_t cursor = field_uint64(fields, "cursor", 0);
    std::uint64_t max_entries =
        field_uint64(fields, "max_entries", kSnapshotMaxEntriesDefault);
    if (max_entries == 0)
        max_entries = 1;
    if (max_entries > kSnapshotMaxEntriesCap)
        max_entries = kSnapshotMaxEntriesCap;

    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "metrics_snapshot");
    body_str(body, "worker_id", stats.worker_id);
    body_flag(body, "attached", telemetry.metrics != nullptr);
    body_f64(body, "mono_now_s", obs::monotonic_seconds());
    if (telemetry.metrics == nullptr) {
        body_u64(body, "total", 0);
        body_u64(body, "cursor_next", 0);
        body_u64(body, "remaining", 0);
        body_u64(body, "entries", 0);
        return body;
    }
    // The cursor indexes the name-sorted sample vector; registering a
    // new metric mid-pull can shift indices, so pull at quiescence
    // (campaign end) — exactly how the dist layer uses it.
    const std::vector<obs::MetricSample> samples =
        telemetry.metrics->samples();
    const std::uint64_t total = samples.size();
    const std::uint64_t begin = std::min(cursor, total);
    const std::uint64_t end = std::min(begin + max_entries, total);
    body_u64(body, "total", total);
    body_u64(body, "cursor_next", end);
    body_u64(body, "remaining", total - end);
    body_u64(body, "entries", end - begin);
    for (std::uint64_t i = begin; i < end; ++i) {
        std::string key = "m";
        key += std::to_string(i - begin);
        body_str(body, key.c_str(),
                 obs::encode_metric_sample(samples[i]));
    }
    return body;
}

std::string
trace_export_body(const FlatJsonFields& fields,
                  const TelemetrySources& telemetry,
                  const ServerStatsSnapshot& stats)
{
    const std::uint64_t cursor = field_uint64(fields, "cursor", 0);
    std::uint64_t max_events =
        field_uint64(fields, "max_events", kExportMaxEventsDefault);
    if (max_events == 0)
        max_events = 1;
    if (max_events > kExportMaxEventsCap)
        max_events = kExportMaxEventsCap;

    std::string body;
    body_flag(body, "ok", true);
    body_str(body, "type", "trace_export");
    body_str(body, "worker_id", stats.worker_id);
    body_flag(body, "attached", telemetry.trace != nullptr);
    body_f64(body, "mono_now_s", obs::monotonic_seconds());
    if (telemetry.trace == nullptr) {
        body_f64(body, "mono_skew_s", 0.0);
        body_u64(body, "total", 0);
        body_u64(body, "dropped", 0);
        body_u64(body, "cursor_next", 0);
        body_u64(body, "remaining", 0);
        body_u64(body, "events", 0);
        return body;
    }
    // session-epoch -> monotonic_seconds() skew: exact (both epochs
    // are fixed clock points), so the puller maps event timestamps
    // onto this worker's monotonic timeline without estimation error.
    body_f64(body, "mono_skew_s",
             telemetry.trace->epoch_to_monotonic_skew_s());
    std::uint64_t cursor_next = 0;
    std::uint64_t remaining = 0;
    const std::vector<obs::TraceEvent> events =
        telemetry.trace->export_events(
            cursor, static_cast<std::size_t>(max_events), cursor_next,
            remaining);
    body_u64(body, "total", telemetry.trace->event_count());
    body_u64(body, "dropped", telemetry.trace->dropped());
    body_u64(body, "cursor_next", cursor_next);
    body_u64(body, "remaining", remaining);
    body_u64(body, "events", events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        std::string key = "e";
        key += std::to_string(i);
        body_str(body, key.c_str(), obs::encode_trace_event(events[i]));
    }
    return body;
}

}  // namespace

std::uint64_t
request_id(const FlatJsonFields& fields)
{
    std::uint64_t id = 0;
    json_get_uint64(fields, "id", id);
    return id;
}

bool
response_is_memoized(const std::string& type)
{
    return type == "eval_design_point" || type == "eval_mapping" ||
           type == "sim_step" || type == "run_case";
}

CacheKey
request_cache_key(const FlatJsonFields& fields)
{
    StableHash hash;
    hash.add(std::string_view(kProtocolVersion));
    for (const auto& [key, value] : fields) {
        // "id" is the echo token; "trace" is observability context.
        // Neither changes what is computed, so neither may split the
        // memo — a traced request must hit an untraced request's entry.
        if (key == "id" || key == "trace")
            continue;
        hash.add(std::string_view(key));
        hash.add(std::string_view(value));
    }
    return hash.key();
}

std::string
error_body(const std::string& code, const std::string& detail)
{
    std::string body;
    body_flag(body, "ok", false);
    body_str(body, "error", code);
    body_str(body, "detail", detail);
    return body;
}

std::string
finish_response(std::uint64_t id, const std::string& body)
{
    std::string out = "{";
    json_append_field(out, "v", kProtocolVersion);
    json_append_raw_field(out, "id", std::to_string(id));
    out += ',';
    out += body;
    out += '}';
    return out;
}

std::string
error_response(std::uint64_t id, const std::string& code,
               const std::string& detail)
{
    return finish_response(id, error_body(code, detail));
}

void
append_timing_fields(std::string& response, double queue_wait_s,
                     double decode_s, double eval_s, double encode_s)
{
    if (response.empty() || response.back() != '}')
        return;
    std::string timing;
    body_f64(timing, "timing_queue_s", queue_wait_s);
    body_f64(timing, "timing_decode_s", decode_s);
    body_f64(timing, "timing_eval_s", eval_s);
    body_f64(timing, "timing_encode_s", encode_s);
    response.pop_back();
    response += ',';
    response += timing;
    response += '}';
}

std::string
handle_request_body(const FlatJsonFields& fields, ResponseCache* cache,
                    const ServerStatsSnapshot& stats,
                    const TelemetrySources& telemetry)
{
    std::string version;
    if (!json_get_string(fields, "v", version))
        return error_body(kErrBadVersion, "missing protocol field \"v\"");
    if (version != kProtocolVersion)
        return error_body(kErrBadVersion,
                          "unsupported protocol version \"" + version +
                              "\"; this server speaks " +
                              kProtocolVersion);
    std::string type;
    if (!json_get_string(fields, "type", type))
        return error_body(kErrBadRequest,
                          "missing request field \"type\"");
    if (type == "server_stats")
        return server_stats_body(stats);
    if (type == "health")
        return health_body(stats);
    if (type == "metrics_snapshot")
        return metrics_snapshot_body(fields, telemetry, stats);
    if (type == "trace_export")
        return trace_export_body(fields, telemetry, stats);
    if (!response_is_memoized(type))
        return error_body(kErrUnknownType,
                          "unknown request type \"" + type + "\"");

    const auto compute = [&]() -> std::string {
        OBS_SPAN("serve/eval");
        // Handlers report user errors via fatal(); isolate them to an
        // error reply instead of taking the daemon down.
        FatalThrowGuard guard;
        try {
            if (type == "eval_design_point")
                return eval_design_point_body(fields);
            if (type == "eval_mapping")
                return eval_mapping_body(fields);
            if (type == "run_case")
                return run_case_body(fields);
            return sim_step_body(fields);
        } catch (const FatalError& error) {
            return error_body(kErrBadRequest, error.what());
        } catch (const std::exception& error) {
            return error_body(kErrBadRequest, error.what());
        }
    };
    if (cache == nullptr)
        return compute();
    return cache->get_or_compute(request_cache_key(fields), compute);
}

}  // namespace chrysalis::serve
