// Fleet telemetry handler tests: memo-exemption of the `trace` field
// (tracing is observability, never semantics), timing splices staying
// out of cached bytes, and the bounded cursor-resumable
// `metrics_snapshot` / `trace_export` pull handlers.

#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_json.hpp"
#include "obs/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace chrysalis;

FlatJsonFields base_request(const std::string& type)
{
    FlatJsonFields fields;
    fields["v"] = serve::kProtocolVersion;
    fields["id"] = "7";
    fields["type"] = type;
    return fields;
}

std::uint64_t field_u64(const FlatJsonFields& fields, const char* name)
{
    const auto it = fields.find(name);
    EXPECT_NE(it, fields.end()) << "missing field " << name;
    if (it == fields.end())
        return 0;
    return static_cast<std::uint64_t>(std::stoull(it->second));
}

TEST(TraceField, RoundTripsAndRejectsMalformed)
{
    obs::TraceContext context;
    context.trace_id = 0xabcdef12u;
    context.parent_span = 42;
    context.sampled = true;
    obs::TraceContext out;
    ASSERT_TRUE(
        obs::parse_trace_field(obs::format_trace_field(context), out));
    EXPECT_EQ(out.trace_id, context.trace_id);
    EXPECT_EQ(out.parent_span, context.parent_span);
    EXPECT_TRUE(out.sampled);

    context.sampled = false;
    ASSERT_TRUE(
        obs::parse_trace_field(obs::format_trace_field(context), out));
    EXPECT_FALSE(out.sampled);

    out.trace_id = 99;
    EXPECT_FALSE(obs::parse_trace_field("", out));
    EXPECT_FALSE(obs::parse_trace_field("not-a-trace", out));
    EXPECT_FALSE(obs::parse_trace_field("zz-00-01", out));
    EXPECT_EQ(out.trace_id, 99u);  // untouched on failure
}

TEST(Handlers, CacheKeyIgnoresTraceContext)
{
    FlatJsonFields untraced = base_request("eval_design_point");
    untraced["model"] = "kws";

    obs::TraceContext context;
    context.trace_id = 0x1234;
    context.parent_span = 5;
    FlatJsonFields traced = untraced;
    traced["trace"] = obs::format_trace_field(context);
    traced["id"] = "99";

    // Tracing is observability, never semantics: a traced and an
    // untraced spelling of the same request share one memo entry.
    EXPECT_EQ(serve::request_cache_key(untraced),
              serve::request_cache_key(traced));

    FlatJsonFields different = untraced;
    different["model"] = "har";
    EXPECT_NE(serve::request_cache_key(untraced),
              serve::request_cache_key(different));

    // "case_index" is attribution data, not trace plumbing, and stays
    // in the key deliberately — only "id" and "trace" are exempt.
    FlatJsonFields attributed = untraced;
    attributed["case_index"] = "0";
    EXPECT_NE(serve::request_cache_key(untraced),
              serve::request_cache_key(attributed));
}

TEST(Handlers, TracedRequestHitsUntracedMemoEntry)
{
    serve::ServerStatsSnapshot stats;
    serve::ResponseCache cache(64);
    FlatJsonFields untraced = base_request("eval_design_point");
    untraced["model"] = "kws";

    const std::string body1 =
        serve::handle_request_body(untraced, &cache, stats);

    obs::TraceContext context;
    context.trace_id = 7;
    FlatJsonFields traced = untraced;
    traced["trace"] = obs::format_trace_field(context);
    const std::string body2 =
        serve::handle_request_body(traced, &cache, stats);

    EXPECT_EQ(body1, body2);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    // Timing is spliced by the server AFTER memo lookup; handler-level
    // bodies (the bytes that get cached) must never carry it.
    EXPECT_EQ(body1.find("timing_"), std::string::npos) << body1;
    EXPECT_EQ(body2.find("timing_"), std::string::npos) << body2;
}

TEST(Handlers, AppendTimingFieldsSplicesBeforeClosingBrace)
{
    std::string response = "{\"v\":\"x\",\"id\":1,\"ok\":1}";
    serve::append_timing_fields(response, 0.5, 0.25, 2.0, 0.125);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json(response, fields));
    EXPECT_EQ(fields.at("ok"), "1");
    EXPECT_EQ(fields.at("timing_queue_s"), "0.5");
    EXPECT_EQ(fields.at("timing_decode_s"), "0.25");
    EXPECT_EQ(fields.at("timing_eval_s"), "2");
    EXPECT_EQ(fields.at("timing_encode_s"), "0.125");
}

TEST(Handlers, HealthReportsMonotonicNow)
{
    serve::ServerStatsSnapshot stats;
    stats.worker_id = "w1";
    const std::string body = serve::handle_request_body(
        base_request("health"), nullptr, stats);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
    EXPECT_EQ(fields.at("worker_id"), "w1");
    EXPECT_NE(fields.find("mono_now_s"), fields.end()) << body;
}

TEST(Handlers, ServerStatsReportsLatencyQuantiles)
{
    serve::ServerStatsSnapshot stats;
    stats.latency_count = 1000;
    stats.latency_p50_s = 0.5;
    stats.latency_p95_s = 2.0;
    stats.latency_p99_s = 4.0;
    const std::string body = serve::handle_request_body(
        base_request("server_stats"), nullptr, stats);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
    EXPECT_EQ(fields.at("latency_count"), "1000");
    EXPECT_EQ(fields.at("latency_p50_s"), "0.5");
    EXPECT_EQ(fields.at("latency_p95_s"), "2");
    EXPECT_EQ(fields.at("latency_p99_s"), "4");
}

TEST(Handlers, PullTypesAreNeverMemoized)
{
    EXPECT_FALSE(serve::response_is_memoized("metrics_snapshot"));
    EXPECT_FALSE(serve::response_is_memoized("trace_export"));

    // And they bypass the cache entirely: live state must be re-read
    // on every pull.
    serve::ServerStatsSnapshot stats;
    serve::ResponseCache cache(64);
    serve::handle_request_body(base_request("metrics_snapshot"), &cache,
                               stats);
    serve::handle_request_body(base_request("trace_export"), &cache,
                               stats);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(Handlers, MetricsSnapshotWithoutSourceReportsDetached)
{
    serve::ServerStatsSnapshot stats;
    const std::string body = serve::handle_request_body(
        base_request("metrics_snapshot"), nullptr, stats);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
    EXPECT_EQ(fields.at("ok"), "1");
    EXPECT_EQ(fields.at("attached"), "0");
    EXPECT_EQ(fields.at("total"), "0");
    EXPECT_EQ(fields.at("remaining"), "0");
    EXPECT_EQ(fields.at("entries"), "0");
}

TEST(Handlers, MetricsSnapshotPagesUntilDrained)
{
    obs::MetricsRegistry registry;
    registry.counter("alpha").add(3);
    registry.counter("beta").add(5);
    registry.gauge("gamma").set(1.5);
    registry.histogram("delta", {1.0, 2.0}).record(0.5);
    registry.counter("epsilon").add(1);

    serve::ServerStatsSnapshot stats;
    serve::TelemetrySources telemetry;
    telemetry.metrics = &registry;

    const std::vector<obs::MetricSample> expected = registry.samples();
    std::vector<obs::MetricSample> pulled;
    std::uint64_t cursor = 0;
    int pages = 0;
    while (true) {
        FlatJsonFields request = base_request("metrics_snapshot");
        request["cursor"] = std::to_string(cursor);
        request["max_entries"] = "2";
        const std::string body = serve::handle_request_body(
            request, nullptr, stats, telemetry);
        FlatJsonFields fields;
        ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
        ASSERT_EQ(fields.at("attached"), "1");
        ASSERT_EQ(field_u64(fields, "total"), expected.size());
        const std::uint64_t entries = field_u64(fields, "entries");
        ASSERT_LE(entries, 2u);
        for (std::uint64_t i = 0; i < entries; ++i) {
            std::string key = "m";
            key += std::to_string(i);
            obs::MetricSample sample;
            ASSERT_TRUE(obs::decode_metric_sample(fields.at(key), sample));
            pulled.push_back(std::move(sample));
        }
        cursor = field_u64(fields, "cursor_next");
        ++pages;
        if (field_u64(fields, "remaining") == 0)
            break;
        ASSERT_LT(pages, 16) << "cursor failed to make progress";
    }
    EXPECT_EQ(pages, 3);  // 5 samples at 2 per page
    ASSERT_EQ(pulled.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(pulled[i].name, expected[i].name) << i;
        EXPECT_EQ(pulled[i].kind, expected[i].kind) << i;
        EXPECT_EQ(pulled[i].count, expected[i].count) << i;
        EXPECT_EQ(pulled[i].value, expected[i].value) << i;
    }
}

TEST(Handlers, TraceExportWithoutSourceReportsDetached)
{
    serve::ServerStatsSnapshot stats;
    const std::string body = serve::handle_request_body(
        base_request("trace_export"), nullptr, stats);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
    EXPECT_EQ(fields.at("ok"), "1");
    EXPECT_EQ(fields.at("attached"), "0");
    EXPECT_EQ(fields.at("events"), "0");
    EXPECT_EQ(fields.at("remaining"), "0");
}

TEST(Handlers, TraceExportCursorResumesWithoutDuplicates)
{
    obs::TraceSession session;
    constexpr int kEvents = 10;
    for (int i = 0; i < kEvents; ++i) {
        obs::TraceEvent event;
        event.name = "span" + std::to_string(i);
        event.start_us = 100.0 * i;  // NOLINT(chrysalis-unit-suffix)
        event.duration_us = 10.0;    // NOLINT(chrysalis-unit-suffix)
        session.add_event(std::move(event));
    }

    serve::ServerStatsSnapshot stats;
    serve::TelemetrySources telemetry;
    telemetry.trace = &session;

    std::vector<obs::TraceEvent> pulled;
    std::uint64_t cursor = 0;
    int pages = 0;
    while (true) {
        FlatJsonFields request = base_request("trace_export");
        request["cursor"] = std::to_string(cursor);
        request["max_events"] = "3";
        const std::string body = serve::handle_request_body(
            request, nullptr, stats, telemetry);
        FlatJsonFields fields;
        ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
        ASSERT_EQ(fields.at("attached"), "1");
        ASSERT_EQ(field_u64(fields, "total"),
                  static_cast<std::uint64_t>(kEvents));
        ASSERT_EQ(field_u64(fields, "dropped"), 0u);
        ASSERT_NE(fields.find("mono_skew_s"), fields.end());
        const std::uint64_t events = field_u64(fields, "events");
        ASSERT_LE(events, 3u);
        for (std::uint64_t i = 0; i < events; ++i) {
            std::string key = "e";
            key += std::to_string(i);
            obs::TraceEvent event;
            ASSERT_TRUE(obs::decode_trace_event(fields.at(key), event));
            pulled.push_back(std::move(event));
        }
        cursor = field_u64(fields, "cursor_next");
        ++pages;
        if (field_u64(fields, "remaining") == 0)
            break;
        ASSERT_LT(pages, 16) << "cursor failed to make progress";
    }
    EXPECT_EQ(pages, 4);  // 10 events at 3 per page
    ASSERT_EQ(pulled.size(), static_cast<std::size_t>(kEvents));
    // Append order within the thread, no duplicates, no gaps.
    for (int i = 0; i < kEvents; ++i)
        EXPECT_EQ(pulled[static_cast<std::size_t>(i)].name,
                  "span" + std::to_string(i));
}

TEST(Handlers, TraceExportClampsPageSize)
{
    obs::TraceSession session;
    obs::TraceEvent event;
    event.name = "only";
    session.add_event(std::move(event));

    serve::ServerStatsSnapshot stats;
    serve::TelemetrySources telemetry;
    telemetry.trace = &session;

    // max_events=0 would never make progress; the handler raises it to
    // one so every page moves the cursor.
    FlatJsonFields request = base_request("trace_export");
    request["max_events"] = "0";
    const std::string body =
        serve::handle_request_body(request, nullptr, stats, telemetry);
    FlatJsonFields fields;
    ASSERT_TRUE(scan_flat_json("{" + body + "}", fields));
    EXPECT_EQ(field_u64(fields, "events"), 1u);
    EXPECT_EQ(field_u64(fields, "remaining"), 0u);
}

}  // namespace
