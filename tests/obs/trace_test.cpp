/// \file
/// Tests for tracing spans: inertness without a session, nesting depth,
/// multi-thread merge, Chrome trace-event JSON shape and the SpanTimer
/// dual role (always times, records only when attached).

#include "obs/trace.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace chrysalis::obs {
namespace {

TEST(ScopedSpanTest, InertWithoutSession)
{
    ASSERT_EQ(trace(), nullptr);
    {
        OBS_SPAN("unattached");
        OBS_SPAN("also unattached");
    }
    // Nothing to observe directly — the contract is simply "no crash,
    // no state"; a session attached later must not see these spans.
    TraceSession session;
    ScopedTrace scope(session);
    EXPECT_TRUE(session.merged().empty());
}

TEST(ScopedSpanTest, RecordsNestingDepth)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        OBS_SPAN("root");
        {
            OBS_SPAN("child");
            { OBS_SPAN("grandchild"); }
        }
        OBS_SPAN("sibling");  // same depth as "child"
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(), 4u);
    std::uint32_t root_depth = 0, child_depth = 0, grandchild_depth = 0;
    for (const TraceEvent& event : events) {
        if (event.name == "root")
            root_depth = event.depth;
        else if (event.name == "child" || event.name == "sibling")
            child_depth = event.depth;
        else if (event.name == "grandchild")
            grandchild_depth = event.depth;
        EXPECT_GE(event.duration_us, 0.0) << event.name;
        EXPECT_GE(event.start_us, 0.0) << event.name;
    }
    EXPECT_EQ(root_depth, 0u);
    EXPECT_EQ(child_depth, 1u);
    EXPECT_EQ(grandchild_depth, 2u);
}

TEST(ScopedSpanTest, SpanOpenAcrossDetachDoesNotLeakIntoNextSession)
{
    // A span that outlives its session must not record into a session
    // attached afterwards (the session-id check).
    TraceSession first;
    attach_trace(&first);
    auto* orphan = new ScopedSpan("orphan");
    attach_trace(nullptr);

    TraceSession second;
    attach_trace(&second);
    delete orphan;  // closes after its session detached
    attach_trace(nullptr);
    EXPECT_TRUE(second.merged().empty());
    EXPECT_TRUE(first.merged().empty());
}

TEST(TraceSessionTest, MergesEventsFromMultipleThreads)
{
    TraceSession session;
    constexpr int kThreads = 4;
    constexpr int kSpans = 25;
    {
        ScopedTrace scope(session);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([] {
                for (int i = 0; i < kSpans; ++i) {
                    OBS_SPAN("worker");
                }
            });
        }
        for (auto& thread : threads)
            thread.join();
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kSpans);
    // Distinct session-local tids, and stable (tid, start) order.
    std::vector<std::uint32_t> tids;
    for (const TraceEvent& event : events)
        tids.push_back(event.tid);
    std::vector<std::uint32_t> unique_tids = tids;
    std::sort(unique_tids.begin(), unique_tids.end());
    unique_tids.erase(
        std::unique(unique_tids.begin(), unique_tids.end()),
        unique_tids.end());
    EXPECT_EQ(unique_tids.size(), static_cast<std::size_t>(kThreads));
    EXPECT_TRUE(std::is_sorted(tids.begin(), tids.end()));
}

TEST(TraceSessionTest, ChromeTraceJsonShape)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        OBS_SPAN("outer \"quoted\"");
        OBS_SPAN("inner");
    }
    std::ostringstream os;
    session.write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    // The quote in the span name must be escaped.
    EXPECT_NE(json.find("outer \\\"quoted\\\""), std::string::npos);
}

TEST(TraceSessionTest, DestructorDetachesItself)
{
    {
        auto session = std::make_unique<TraceSession>();
        attach_trace(session.get());
        EXPECT_EQ(trace(), session.get());
    }  // destroyed while attached
    EXPECT_EQ(trace(), nullptr);
    // Spans after the session died must be inert, not a use-after-free.
    OBS_SPAN("after death");
}

TEST(TraceSessionTest, PerThreadCapCountsDrops)
{
    TraceSession session;
    session.set_max_events_per_thread(3);
    for (int i = 0; i < 10; ++i) {
        TraceEvent event;
        event.name = "e";
        event.name += std::to_string(i);
        session.add_event(std::move(event));
    }
    EXPECT_EQ(session.event_count(), 3u);
    EXPECT_EQ(session.dropped(), 7u);
    // The survivors are the earliest events, in append order.
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].name, "e0");
    EXPECT_EQ(events[2].name, "e2");
}

TEST(TraceSessionTest, ExportCursorSurvivesLaterAppends)
{
    TraceSession session;
    const auto add = [&session](const std::string& name) {
        TraceEvent event;
        event.name = name;
        session.add_event(event);
    };
    add("a");
    add("b");
    add("c");

    std::uint64_t cursor_next = 0;
    std::uint64_t remaining = 0;
    std::vector<TraceEvent> page =
        session.export_events(0, 2, cursor_next, remaining);
    ASSERT_EQ(page.size(), 2u);
    EXPECT_EQ(page[0].name, "a");
    EXPECT_EQ(page[1].name, "b");
    EXPECT_EQ(remaining, 1u);

    // Events appended between pages must not invalidate the cursor or
    // resurface already-exported events.
    add("d");
    page = session.export_events(cursor_next, 8, cursor_next, remaining);
    ASSERT_EQ(page.size(), 2u);
    EXPECT_EQ(page[0].name, "c");
    EXPECT_EQ(page[1].name, "d");
    EXPECT_EQ(remaining, 0u);

    // Drained: a further pull from the final cursor is empty.
    page = session.export_events(cursor_next, 8, cursor_next, remaining);
    EXPECT_TRUE(page.empty());
    EXPECT_EQ(remaining, 0u);
}

TEST(TraceSessionTest, EpochSkewIsStable)
{
    TraceSession session;
    const double skew_a = session.epoch_to_monotonic_skew_s();
    const double skew_b = session.epoch_to_monotonic_skew_s();
    // Both epochs are fixed clock points, so the skew is a constant of
    // the session — that exactness is what fleet alignment leans on.
    EXPECT_DOUBLE_EQ(skew_a, skew_b);
    // session time + skew lands on the monotonic_seconds() timeline.
    const double mono_before = monotonic_seconds();
    const double mapped = session.seconds_since_epoch() + skew_a;
    const double mono_after = monotonic_seconds();
    EXPECT_GE(mapped, mono_before - 1e-9);
    EXPECT_LE(mapped, mono_after + 1e-9);
}

TEST(SpanTimerTest, TimesWithoutSession)
{
    ASSERT_EQ(trace(), nullptr);
    SpanTimer timer("untracked");
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i)
        sink = sink + 1.0;
    EXPECT_GE(timer.elapsed_s(), 0.0);
}

TEST(SpanTimerTest, RecordsWhenSessionAttached)
{
    TraceSession session;
    {
        ScopedTrace scope(session);
        SpanTimer timer("timed scope");
        EXPECT_GE(timer.elapsed_s(), 0.0);
    }
    const std::vector<TraceEvent> events = session.merged();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "timed scope");
}

}  // namespace
}  // namespace chrysalis::obs
