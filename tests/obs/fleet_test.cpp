// FleetCollector tests: clock alignment (the merged trace must never
// show time running backwards, even under adversarial offsets), the
// flat-text trace/metric codecs the pull protocol ships records
// through, the metrics rollup namespace, and byte-stability of the
// merged Chrome trace for fixed inputs.

#include "obs/fleet.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chrysalis::obs {
namespace {

TraceEvent make_event(std::string name, double start_us,
                      double duration_us)
{
    TraceEvent event;
    event.name = std::move(name);
    event.start_us = start_us;        // NOLINT(chrysalis-unit-suffix)
    event.duration_us = duration_us;  // NOLINT(chrysalis-unit-suffix)
    return event;
}

WorkerTelemetry make_worker(std::string id, double clock_offset_s,
                            std::vector<TraceEvent> events)
{
    WorkerTelemetry worker;
    worker.worker_id = std::move(id);
    worker.clock_offset_s = clock_offset_s;
    worker.events = std::move(events);
    return worker;
}

TEST(ClockOffset, ProbeUsesRttMidpoint)
{
    // Reply's remote reading assumed at the RTT midpoint:
    // offset = (send + recv)/2 - remote.
    EXPECT_DOUBLE_EQ(clock_offset_from_probe(10.0, 12.0, 5.0), 6.0);
    EXPECT_DOUBLE_EQ(clock_offset_from_probe(0.0, 0.0, 3.0), -3.0);
    // Zero-RTT probe against an identical clock: no offset.
    EXPECT_DOUBLE_EQ(clock_offset_from_probe(7.5, 7.5, 7.5), 0.0);
}

TEST(FleetCollector, AlignmentShiftsAndRebases)
{
    FleetCollector collector;
    // Worker "a" runs 1 s ahead on the merged timeline; worker "b" is
    // the reference. a's event lands 1e6 us after its raw timestamp.
    collector.add_worker(
        make_worker("a", 1.0, {make_event("a/root", 100.0, 50.0)}));
    collector.add_worker(
        make_worker("b", 0.0, {make_event("b/root", 200.0, 25.0)}));

    std::uint64_t clamped = 99;
    const std::vector<FleetCollector::AlignedEvent> events =
        collector.aligned(&clamped);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(clamped, 0u);

    // Sorted by worker index; re-based so the earliest start is 0.
    EXPECT_EQ(events[0].worker, 0u);
    EXPECT_DOUBLE_EQ(events[0].event.start_us, 1000100.0 - 200.0);
    EXPECT_EQ(events[1].worker, 1u);
    EXPECT_DOUBLE_EQ(events[1].event.start_us, 0.0);
    // Durations are single-clock measurements; shifting never changes
    // them.
    EXPECT_DOUBLE_EQ(events[0].event.duration_us, 50.0);
    EXPECT_DOUBLE_EQ(events[1].event.duration_us, 25.0);
}

TEST(FleetCollector, AdversarialOffsetsNeverYieldNegativeDurations)
{
    // Offsets are estimates with +-RTT/2 error and the inputs come off
    // the network; feed the collector garbage (wildly wrong offsets in
    // both directions, corrupted negative durations) and assert the
    // invariant the merged trace documents: no aligned span ever has a
    // negative duration.
    FleetCollector collector;
    collector.add_worker(make_worker(
        "fast", 1e9, {make_event("x", 0.0, 10.0),
                      make_event("corrupt", 5.0, -123.0)}));
    collector.add_worker(make_worker(
        "slow", -1e9, {make_event("y", 1e12, 0.0),
                       make_event("corrupt2", 0.0, -1e-9)}));
    collector.add_worker(
        make_worker("sane", 0.0, {make_event("z", 3.0, 4.0)}));

    std::uint64_t clamped = 0;
    const std::vector<FleetCollector::AlignedEvent> events =
        collector.aligned(&clamped);
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(clamped, 2u);  // exactly the two corrupted inputs

    double min_start = events[0].event.start_us;
    for (const FleetCollector::AlignedEvent& event : events) {
        ASSERT_GE(event.event.duration_us, 0.0)
            << "negative duration survived alignment: "
            << event.event.name;
        if (event.event.start_us < min_start)
            min_start = event.event.start_us;
    }
    // Re-based: the merged timeline starts at zero.
    EXPECT_DOUBLE_EQ(min_start, 0.0);
}

TEST(FleetCollector, MergedTraceBytesAreStable)
{
    FleetCollector collector;
    TraceEvent tagged = make_event("root", 100.0, 50.0);
    tagged.trace_id = 0x2a;
    tagged.case_index = 3;
    collector.add_worker(make_worker("w-a", 1.0, {tagged}));
    collector.add_worker(
        make_worker("w-b", 0.0, {make_event("b", 200.0, 25.0)}));

    std::ostringstream first;
    collector.write_chrome_trace(first);
    std::ostringstream second;
    collector.write_chrome_trace(second);
    EXPECT_EQ(first.str(), second.str());

    // Golden bytes: process_name metadata per worker (pid = worker
    // index), then the aligned events; attribution args only when set.
    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"w-a\"}},"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"w-b\"}},"
        "{\"name\":\"root\",\"cat\":\"chrysalis\",\"ph\":\"X\","
        "\"pid\":0,\"tid\":0,\"ts\":999900.000,\"dur\":50.000,"
        "\"args\":{\"depth\":0,\"trace_id\":\"000000000000002a\","
        "\"case\":3}},"
        "{\"name\":\"b\",\"cat\":\"chrysalis\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":25.000,"
        "\"args\":{\"depth\":0}}"
        "]}\n";
    EXPECT_EQ(first.str(), expected);
}

TEST(FleetCodec, TraceEventRoundTrips)
{
    TraceEvent event;
    event.name = "serve/eval;with;separators";  // trailing field: legal
    event.tid = 7;
    event.depth = 2;
    event.start_us = 1234.5625;   // NOLINT(chrysalis-unit-suffix)
    event.duration_us = 0.03125;  // NOLINT(chrysalis-unit-suffix)
    event.trace_id = 0xdeadbeefULL;
    event.case_index = 42;
    event.worker = "host:9000";

    TraceEvent out;
    ASSERT_TRUE(decode_trace_event(encode_trace_event(event), out));
    EXPECT_EQ(out.name, event.name);
    EXPECT_EQ(out.tid, event.tid);
    EXPECT_EQ(out.depth, event.depth);
    EXPECT_EQ(out.start_us, event.start_us);
    EXPECT_EQ(out.duration_us, event.duration_us);
    EXPECT_EQ(out.trace_id, event.trace_id);
    EXPECT_EQ(out.case_index, event.case_index);
    EXPECT_EQ(out.worker, event.worker);

    // A ';' in the (non-trailing) worker field would shift every field
    // after it; the encoder sanitizes it instead.
    TraceEvent hostile;
    hostile.name = "n";
    hostile.worker = "evil;host";
    ASSERT_TRUE(decode_trace_event(encode_trace_event(hostile), out));
    EXPECT_EQ(out.worker, "evil_host");
    EXPECT_EQ(out.name, "n");
}

TEST(FleetCodec, TraceEventRejectsMalformed)
{
    TraceEvent out;
    out.name = "sentinel";
    EXPECT_FALSE(decode_trace_event("", out));
    EXPECT_FALSE(decode_trace_event("1;2;3", out));  // too few fields
    EXPECT_FALSE(decode_trace_event("x;0;0;0;0;0;w;n", out));
    EXPECT_FALSE(decode_trace_event("0;0;zero;0;0;0;w;n", out));
    EXPECT_EQ(out.name, "sentinel");  // untouched on failure
}

TEST(FleetCodec, MetricSampleRoundTripsAllKinds)
{
    MetricSample counter;
    counter.name = "cases/completed";
    counter.kind = MetricKind::kCounter;
    counter.stability = Stability::kStable;
    counter.count = 12345;

    MetricSample gauge;
    gauge.name = "queue/depth;now";  // trailing field: ';' legal
    gauge.kind = MetricKind::kGauge;
    gauge.stability = Stability::kVolatile;
    gauge.value = -2.5;

    MetricSample hist;
    hist.name = "latency_s";
    hist.kind = MetricKind::kHistogram;
    hist.stability = Stability::kVolatile;
    hist.count = 6;
    hist.sum = 1.75;
    hist.min = 0.125;
    hist.max = 0.5;
    hist.bounds = {0.25, 0.5};
    hist.counts = {4, 2, 0};

    for (const MetricSample& sample : {counter, gauge, hist}) {
        MetricSample out;
        ASSERT_TRUE(decode_metric_sample(encode_metric_sample(sample),
                                         out))
            << sample.name;
        EXPECT_EQ(out.name, sample.name);
        EXPECT_EQ(out.kind, sample.kind);
        EXPECT_EQ(out.stability, sample.stability);
        EXPECT_EQ(out.count, sample.count);
        EXPECT_EQ(out.value, sample.value);
        EXPECT_EQ(out.sum, sample.sum);
        EXPECT_EQ(out.min, sample.min);
        EXPECT_EQ(out.max, sample.max);
        EXPECT_EQ(out.bounds, sample.bounds);
        EXPECT_EQ(out.counts, sample.counts);
    }

    // Empty histogram: empty bounds/counts lists must survive.
    MetricSample empty_hist = hist;
    empty_hist.count = 0;
    empty_hist.bounds.clear();
    empty_hist.counts.clear();
    MetricSample out;
    ASSERT_TRUE(
        decode_metric_sample(encode_metric_sample(empty_hist), out));
    EXPECT_TRUE(out.bounds.empty());
    EXPECT_TRUE(out.counts.empty());
}

TEST(FleetCodec, MetricSampleRejectsMalformed)
{
    MetricSample out;
    out.name = "sentinel";
    EXPECT_FALSE(decode_metric_sample("", out));
    EXPECT_FALSE(decode_metric_sample("q;s;1;x", out));  // unknown kind
    EXPECT_FALSE(decode_metric_sample("c;w;1;x", out));  // bad stability
    EXPECT_FALSE(decode_metric_sample("c;s;abc;x", out));
    EXPECT_FALSE(decode_metric_sample("h;s;1;0;0;0;1,zz;1,0;x", out));
    EXPECT_EQ(out.name, "sentinel");
}

TEST(FleetCollector, MetricsRollupNamespacesAndAggregates)
{
    MetricSample cases_a;
    cases_a.name = "cases";
    cases_a.kind = MetricKind::kCounter;
    cases_a.count = 5;
    MetricSample cases_b = cases_a;
    cases_b.count = 7;

    MetricSample hist_a;
    hist_a.name = "lat";
    hist_a.kind = MetricKind::kHistogram;
    hist_a.count = 2;
    hist_a.sum = 3.0;
    hist_a.min = 1.0;
    hist_a.max = 2.0;
    hist_a.bounds = {1.0, 4.0};
    hist_a.counts = {1, 1, 0};
    MetricSample hist_b = hist_a;
    hist_b.count = 1;
    hist_b.sum = 8.0;
    hist_b.min = 8.0;
    hist_b.max = 8.0;
    hist_b.counts = {0, 0, 1};

    WorkerTelemetry worker_a;
    worker_a.worker_id = "alpha";
    worker_a.metrics = {cases_a, hist_a};
    WorkerTelemetry worker_b;
    worker_b.worker_id = "beta";
    worker_b.metrics = {cases_b, hist_b};

    FleetCollector collector;
    collector.add_worker(worker_a);
    collector.add_worker(worker_b);
    const std::string json =
        collector.metrics_rollup_json(ReportMode::kFull);

    // Per-worker namespacing plus cross-worker totals.
    EXPECT_NE(json.find("\"fleet/alpha/cases\":5"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fleet/beta/cases\":7"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fleet/total/cases\":12"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fleet/workers\":2"), std::string::npos)
        << json;
    // Matching-bounds histograms merge: counts sum bucketwise, min/max
    // widen, count totals. (Stable-section histograms render without
    // their order-dependent sum.)
    EXPECT_NE(json.find("\"fleet/total/lat\":{\"count\":3,"
                        "\"min\":1,\"max\":8,\"bounds\":[1,4],"
                        "\"counts\":[1,1,1]}"),
              std::string::npos)
        << json;
}

TEST(FleetCollector, RollupDisambiguatesDuplicateWorkerIds)
{
    MetricSample sample;
    sample.name = "n";
    sample.kind = MetricKind::kCounter;
    sample.count = 1;

    WorkerTelemetry first;
    first.worker_id = "dup";
    first.metrics = {sample};
    WorkerTelemetry second = first;

    FleetCollector collector;
    collector.add_worker(first);
    collector.add_worker(second);
    const std::string json = collector.metrics_rollup_json();
    EXPECT_NE(json.find("\"fleet/dup/n\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"fleet/dup#1/n\":1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fleet/total/n\":2"), std::string::npos)
        << json;
}

TEST(FleetCollector, SessionEventsFeedTheCollector)
{
    // End-to-end within one process: spans recorded through a live
    // session round-trip through the export codec into the collector,
    // offset by the session's exact epoch skew.
    TraceSession session;
    {
        ScopedTrace scoped(session);
        OBS_SPAN("outer");
        OBS_SPAN("inner");
    }
    ASSERT_EQ(trace(), nullptr);
    ASSERT_EQ(session.event_count(), 2u);

    std::uint64_t cursor_next = 0;
    std::uint64_t remaining = 0;
    const std::vector<TraceEvent> events =
        session.export_events(0, 16, cursor_next, remaining);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(remaining, 0u);

    WorkerTelemetry self;
    self.worker_id = "local";
    self.clock_offset_s = session.epoch_to_monotonic_skew_s();
    for (const TraceEvent& event : events) {
        TraceEvent decoded;
        ASSERT_TRUE(
            decode_trace_event(encode_trace_event(event), decoded));
        self.events.push_back(std::move(decoded));
    }
    FleetCollector collector;
    collector.add_worker(std::move(self));
    std::uint64_t clamped = 0;
    const std::vector<FleetCollector::AlignedEvent> aligned =
        collector.aligned(&clamped);
    ASSERT_EQ(aligned.size(), 2u);
    EXPECT_EQ(clamped, 0u);
    for (const FleetCollector::AlignedEvent& event : aligned)
        EXPECT_GE(event.event.duration_us, 0.0);

    // local_telemetry is the same join without the wire codec, plus
    // the local registry's samples when one is given.
    MetricsRegistry registry;
    registry.counter("local/hits", Stability::kStable).add(3);
    const WorkerTelemetry local =
        local_telemetry("coordinator", session, &registry);
    EXPECT_EQ(local.worker_id, "coordinator");
    EXPECT_EQ(local.clock_offset_s, session.epoch_to_monotonic_skew_s());
    ASSERT_EQ(local.events.size(), 2u);
    EXPECT_EQ(local.dropped_events, 0u);
    ASSERT_EQ(local.metrics.size(), 1u);
    EXPECT_EQ(local.metrics[0].name, "local/hits");
    EXPECT_TRUE(local_telemetry("c", session, nullptr).metrics.empty());
}

}  // namespace
}  // namespace chrysalis::obs
