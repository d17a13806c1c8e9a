/// \file
/// Network chaos tests for the serve path: the server-side chaos hook
/// (torn writes, resets, read delays) must never change reply *bytes*,
/// the resilient client must deliver 100% of requests byte-identical to
/// a calm run under every fault class, and the daemon's self-defenses
/// (slow-loris read timeout, idle reaping, health probes, write-buffer
/// bounds) must trip exactly when advertised.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/flat_json.hpp"
#include "fault/net_fault_injector.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/handlers.hpp"
#include "serve/server.hpp"

namespace {

using namespace chrysalis;

serve::ServerOptions
loopback_options(int threads)
{
    serve::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.threads = threads;
    return options;
}

/// Client options bounding the dial and each reply by \p timeout_s.
serve::ClientOptions
client_timeouts(double timeout_s)
{
    serve::ClientOptions options;
    options.connect_timeout_s = timeout_s;
    options.request_timeout_s = timeout_s;
    return options;
}

/// The deterministic mini-workload shared by the comparison tests:
/// request i carries id i+1.
std::vector<std::pair<std::string, FlatJsonFields>>
mini_workload()
{
    static const char* const kModels[] = {"kws", "har", "simple_conv"};
    std::vector<std::pair<std::string, FlatJsonFields>> items;
    for (int i = 0; i < 30; ++i) {
        FlatJsonFields params;
        params["model"] = kModels[i % 3];
        params["solar_cm2"] = std::to_string(4 + (i % 5));
        items.emplace_back(i % 5 == 4 ? "eval_mapping"
                                      : "eval_design_point",
                          std::move(params));
    }
    return items;
}

/// Replies from a chaos-free single-threaded server — the reference
/// bytes every chaotic run must reproduce.
std::vector<std::string>
reference_replies(
    const std::vector<std::pair<std::string, FlatJsonFields>>& workload)
{
    serve::Server reference(loopback_options(1));
    reference.start();
    serve::Client client(client_timeouts(60.0));
    EXPECT_TRUE(client.connect("127.0.0.1", reference.port()));
    std::vector<std::string> replies;
    for (std::size_t i = 0; i < workload.size(); ++i) {
        client.set_next_id(i + 1);
        serve::Response response;
        EXPECT_TRUE(client.call(workload[i].first, workload[i].second,
                                response));
        replies.push_back(response.raw);
    }
    reference.stop();
    return replies;
}

TEST(ServeChaos, TornServerWritesStillYieldByteIdenticalReplies)
{
    // Torn, stalled, delayed — but never lost: a plain client with a
    // whole-frame deadline must reassemble byte-identical replies.
    fault::NetFaultSpec spec;
    spec.seed = 2024;
    spec.torn_write_probability = 0.9;
    spec.torn_write_chunk_bytes = 5;
    spec.torn_write_stall_s = 0.0005;
    spec.read_delay_probability = 0.3;
    spec.read_delay_s = 0.001;
    const fault::NetFaultInjector chaos(spec);

    serve::ServerOptions options = loopback_options(2);
    options.chaos = &chaos;
    serve::Server server(options);
    server.start();

    const auto workload = mini_workload();
    const std::vector<std::string> expected =
        reference_replies(workload);

    serve::Client client(client_timeouts(60.0));
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    for (std::size_t i = 0; i < workload.size(); ++i) {
        client.set_next_id(i + 1);
        serve::Response response;
        ASSERT_TRUE(client.call(workload[i].first, workload[i].second,
                                response))
            << "request " << i + 1;
        EXPECT_EQ(response.raw, expected[i]) << "request " << i + 1;
    }
    server.stop();
    EXPECT_GT(chaos.activation_counts().torn_writes, 0u);
}

/// Drives the mini-workload through the resilient request() path
/// against a server whose chaos hook runs \p spec; every reply must
/// match the calm reference bytes and at least one reset must fire.
void
expect_resilient_client_survives(const fault::NetFaultSpec& spec)
{
    const auto workload = mini_workload();
    const std::vector<std::string> expected =
        reference_replies(workload);

    const fault::NetFaultInjector chaos(spec);
    serve::ServerOptions options = loopback_options(2);
    options.chaos = &chaos;
    serve::Server server(options);
    server.start();

    serve::ClientOptions client_options;
    client_options.max_attempts = 16;
    client_options.backoff_base_s = 0.001;
    client_options.backoff_max_s = 0.05;
    client_options.request_timeout_s = 10.0;
    client_options.circuit_breaker_threshold = 0;
    serve::Client client(client_options);
    client.connect("127.0.0.1", server.port());
    for (std::size_t i = 0; i < workload.size(); ++i) {
        client.set_next_id(i + 1);
        serve::Response response;
        ASSERT_EQ(client.request(workload[i].first, workload[i].second,
                                 response),
                  serve::CallStatus::kOk)
            << "request " << i + 1;
        EXPECT_EQ(response.raw, expected[i]) << "request " << i + 1;
    }
    server.stop();
    EXPECT_GT(chaos.activation_counts().total(), 0u);
    EXPECT_GT(chaos.activation_counts().resets, 0u);
}

TEST(ServeChaos, ServerResetsAreSurvivedByTheResilientClient)
{
    // Mid-frame RSTs kill connections outright; only the resilient
    // request() path can finish the workload — and the replies must
    // still match the calm reference bytes.
    fault::NetFaultSpec spec;
    spec.seed = 7;
    spec.reset_probability = 0.15;
    spec.torn_write_probability = 0.3;
    spec.torn_write_chunk_bytes = 6;
    spec.torn_write_stall_s = 0.0005;
    expect_resilient_client_survives(spec);
}

TEST(ServeChaos, ProxyChaosGateDeliversEverythingByteIdentical)
{
    // The full client-side gauntlet the chaos gate runs: refused
    // connections, accept stalls, torn and delayed reply delivery,
    // mid-frame resets — all on the server's chaos hook, the one
    // network-fault injection point. 100% eventual success,
    // byte-identical replies.
    fault::NetFaultSpec spec;
    spec.seed = 31;
    spec.connect_refusal_probability = 0.2;
    spec.accept_stall_probability = 0.1;
    spec.accept_stall_s = 0.002;
    spec.torn_write_probability = 0.5;
    spec.torn_write_chunk_bytes = 7;
    spec.torn_write_stall_s = 0.0005;
    spec.reset_probability = 0.1;
    spec.read_delay_probability = 0.2;
    spec.read_delay_s = 0.001;
    expect_resilient_client_survives(spec);
}

TEST(ServeChaos, SlowLorisHalfFrameIsReapedByReadTimeout)
{
    serve::ServerOptions options = loopback_options(1);
    options.read_timeout_s = 0.1;
    serve::Server server(options);
    server.start();

    serve::Client loris(client_timeouts(10.0));
    ASSERT_TRUE(loris.connect("127.0.0.1", server.port()));
    // Three bytes of a length prefix, then silence: a half-sent frame
    // that an honest peer would have completed within milliseconds.
    ASSERT_TRUE(loris.send_bytes("\x00\x00\x01", 3));

    const double deadline_s = obs::monotonic_seconds() + 5.0;
    while (server.stats().timeouts_read == 0 &&
           obs::monotonic_seconds() < deadline_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.stats().timeouts_read, 1u);
    EXPECT_EQ(server.stats().connections_open, 0u);

    // A well-behaved connection that completes its frames promptly is
    // unaffected by the read timeout.
    serve::Client honest(client_timeouts(10.0));
    ASSERT_TRUE(honest.connect("127.0.0.1", server.port()));
    serve::Response response;
    ASSERT_TRUE(honest.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeChaos, IdleConnectionsAreReapedWhenEnabled)
{
    serve::ServerOptions options = loopback_options(1);
    options.idle_timeout_s = 0.1;
    serve::Server server(options);
    server.start();

    serve::Client idler(client_timeouts(10.0));
    ASSERT_TRUE(idler.connect("127.0.0.1", server.port()));
    serve::Response response;
    ASSERT_TRUE(idler.call("server_stats", {}, response));

    const double deadline_s = obs::monotonic_seconds() + 5.0;
    while (server.stats().timeouts_idle == 0 &&
           obs::monotonic_seconds() < deadline_s)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(server.stats().timeouts_idle, 1u);
    EXPECT_EQ(server.stats().connections_open, 0u);
    server.stop();
}

TEST(ServeChaos, HealthRequestReportsReadiness)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client(client_timeouts(10.0));
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    serve::Response response;
    ASSERT_TRUE(client.call("health", {}, response));
    EXPECT_TRUE(response.ok);
    std::string status;
    json_get_string(response.fields, "status", status);
    EXPECT_EQ(status, "ready");
    std::uint64_t draining = 1;
    json_get_uint64(response.fields, "draining", draining);
    EXPECT_EQ(draining, 0u);
    std::uint64_t threads = 0;
    json_get_uint64(response.fields, "threads", threads);
    EXPECT_EQ(threads, 1u);

    EXPECT_EQ(server.stats().requests_health, 1u);
    // health reports live state: it must never be served from the memo.
    EXPECT_FALSE(serve::response_is_memoized("health"));
    EXPECT_TRUE(serve::response_is_memoized("eval_design_point"));
    server.stop();
}

TEST(ServeChaosDeathTest, ValidationRejectsHostileDefenseSettings)
{
    serve::ServerOptions negative_read = loopback_options(1);
    negative_read.read_timeout_s = -1.0;
    EXPECT_EXIT(negative_read.validate(), ::testing::ExitedWithCode(1),
                "read_timeout_s");

    serve::ServerOptions negative_idle = loopback_options(1);
    negative_idle.idle_timeout_s = -0.5;
    EXPECT_EXIT(negative_idle.validate(), ::testing::ExitedWithCode(1),
                "idle_timeout_s");

    serve::ServerOptions tiny_buffer = loopback_options(1);
    tiny_buffer.max_write_buffer_bytes = 1024;
    EXPECT_EXIT(tiny_buffer.validate(), ::testing::ExitedWithCode(1),
                "max_write_buffer_bytes");
}

}  // namespace
