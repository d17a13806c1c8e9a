// Live-socket tests for the chrysalis-serve-v1 daemon: every request
// type over a real loopback connection, protocol-robustness cases
// (malformed payloads, oversized frames, mid-request disconnects,
// overload admission) and the headline guarantee — byte-identical
// replies from a multi-threaded server and a single-threaded one.

#include "serve/client.hpp"
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "common/flat_json.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/handlers.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace chrysalis;

serve::ServerOptions loopback_options(int threads)
{
    serve::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;  // kernel-chosen; tests read server.port()
    options.threads = threads;
    return options;
}

/// Client options bounding the dial and each reply by \p timeout_s.
serve::ClientOptions client_timeouts(double timeout_s)
{
    serve::ClientOptions options;
    options.connect_timeout_s = timeout_s;
    options.request_timeout_s = timeout_s;
    return options;
}

serve::Client connect_to(const serve::Server& server)
{
    serve::Client client(client_timeouts(60.0));
    EXPECT_TRUE(client.connect("127.0.0.1", server.port()));
    return client;
}

TEST(ServeServer, StartResolvesPortAndStopIsIdempotent)
{
    serve::Server server(loopback_options(1));
    server.start();
    EXPECT_TRUE(server.running());
    EXPECT_GT(server.port(), 0);
    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // second stop must be a no-op
}

TEST(ServeServer, StoppedServerRefusesNewConnections)
{
    serve::Server server(loopback_options(1));
    server.start();
    const int port = server.port();
    server.stop();
    // Still constructed, but stopped: a dial must be refused, not left
    // to queue unanswered in the listen backlog.
    serve::Client client(client_timeouts(5.0));
    EXPECT_FALSE(client.connect("127.0.0.1", port));
}

TEST(ServeServer, AnswersEveryRequestType)
{
    serve::Server server(loopback_options(2));
    server.start();
    serve::Client client = connect_to(server);

    serve::Response response;
    ASSERT_TRUE(client.call("eval_design_point", {{"model", "kws"}},
                            response));
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_TRUE(response.fields.count("feasible")) << response.raw;

    ASSERT_TRUE(client.call("eval_mapping", {{"model", "kws"}}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_TRUE(response.fields.count("mappings")) << response.raw;

    ASSERT_TRUE(client.call(
        "sim_step", {{"model", "kws"}, {"runs", "1"}}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_TRUE(response.fields.count("completed")) << response.raw;

    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok) << response.raw;
    std::uint64_t total = 0;
    EXPECT_TRUE(json_get_uint64(response.fields, "requests_total", total));
    EXPECT_GE(total, 3u);

    server.stop();
}

TEST(ServeServer, UnknownTypeGetsStructuredErrorAndConnectionLives)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    serve::Response response;
    ASSERT_TRUE(client.call("make_coffee", {}, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrUnknownType);

    // Same connection still serves valid requests.
    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeServer, WrongVersionIsRejected)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    ASSERT_TRUE(client.send_frame(
        "{\"v\":\"chrysalis-serve-v999\",\"id\":4,\"type\":"
        "\"server_stats\"}"));
    std::string payload;
    ASSERT_TRUE(client.recv_frame(payload));
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(payload, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadVersion);
    EXPECT_EQ(response.id, 4u);
    server.stop();
}

TEST(ServeServer, MalformedJsonKeepsConnectionAlive)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    ASSERT_TRUE(client.send_frame("{\"v\":unterminated garbage"));
    std::string payload;
    ASSERT_TRUE(client.recv_frame(payload));
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(payload, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadRequest);

    // The frame itself was well-formed, so the stream is still in sync
    // and the connection must survive for the next request.
    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeServer, OversizedLengthPrefixGetsBadFrameThenClose)
{
    serve::Server server(loopback_options(1));
    server.start();
    serve::Client client = connect_to(server);

    // Announce a 2 MiB payload (no body needed; the prefix alone is the
    // violation). The server must reply bad_frame, then close — the
    // stream past a refused frame cannot be resynchronized.
    const std::size_t huge = serve::kMaxFrameBytes * 2;
    unsigned char prefix[4] = {
        static_cast<unsigned char>((huge >> 24) & 0xff),
        static_cast<unsigned char>((huge >> 16) & 0xff),
        static_cast<unsigned char>((huge >> 8) & 0xff),
        static_cast<unsigned char>(huge & 0xff),
    };
    ASSERT_TRUE(client.send_bytes(prefix, sizeof prefix));

    std::string payload;
    ASSERT_TRUE(client.recv_frame(payload));
    serve::Response response;
    ASSERT_TRUE(serve::parse_response(payload, response));
    EXPECT_FALSE(response.ok);
    EXPECT_EQ(response.error, serve::kErrBadFrame);

    // After the error reply the server closes: the next read sees EOF.
    EXPECT_FALSE(client.recv_frame(payload));
    server.stop();
}

TEST(ServeServer, MidRequestDisconnectDoesNotKillTheServer)
{
    serve::Server server(loopback_options(2));
    server.start();
    {
        // Half a frame, then vanish.
        serve::Client client = connect_to(server);
        const std::string frame = serve::encode_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":1,\"type\":"
            "\"server_stats\"}");
        ASSERT_TRUE(client.send_bytes(frame.data(), frame.size() / 2));
        client.close();
    }
    {
        // A full request, then vanish before reading the reply.
        serve::Client client = connect_to(server);
        ASSERT_TRUE(client.send_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":2,\"type\":"
            "\"eval_design_point\",\"model\":\"kws\"}"));
        client.close();
    }
    // The server must still be alive and serving.
    serve::Client client = connect_to(server);
    serve::Response response;
    ASSERT_TRUE(client.call("server_stats", {}, response));
    EXPECT_TRUE(response.ok);
    server.stop();
}

TEST(ServeServer, EofAfterRequestsStillGetsEveryReply)
{
    serve::Server server(loopback_options(2));
    server.start();
    serve::Client client = connect_to(server);

    const int n = 5;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(client.send_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":" + std::to_string(i + 1) +
            ",\"type\":\"eval_design_point\",\"model\":\"kws\"}"));
    }
    // Half-close: the server sees EOF after the five requests, must
    // evaluate and flush all five replies, then close.
    client.shutdown_write();
    for (int i = 0; i < n; ++i) {
        std::string payload;
        ASSERT_TRUE(client.recv_frame(payload)) << "reply " << i;
        serve::Response response;
        ASSERT_TRUE(serve::parse_response(payload, response));
        EXPECT_TRUE(response.ok) << payload;
        EXPECT_EQ(response.id, static_cast<std::uint64_t>(i) + 1);
    }
    std::string payload;
    EXPECT_FALSE(client.recv_frame(payload));  // then EOF
    server.stop();
}

TEST(ServeServer, OverloadedRequestsAreRefusedNotDropped)
{
    serve::ServerOptions options = loopback_options(1);
    options.max_inflight = 1;
    options.queue_depth = 1;
    options.batch_max = 1;
    serve::Server server(options);
    server.start();
    serve::Client client = connect_to(server);

    // One write syscall carrying 8 frames: they arrive together, the
    // first is admitted and the burst overflows the depth-1 queue.
    const int n = 8;
    std::string burst;
    for (int i = 0; i < n; ++i) {
        burst += serve::encode_frame(
            "{\"v\":\"chrysalis-serve-v1\",\"id\":" + std::to_string(i + 1) +
            ",\"type\":\"eval_design_point\",\"model\":\"kws\"}");
    }
    ASSERT_TRUE(client.send_bytes(burst.data(), burst.size()));

    // Every request gets exactly one reply — evaluated or refused with
    // a structured `overloaded` error, never silently dropped.
    int ok_replies = 0;
    int overloaded = 0;
    for (int i = 0; i < n; ++i) {
        std::string payload;
        ASSERT_TRUE(client.recv_frame(payload)) << "reply " << i;
        serve::Response response;
        ASSERT_TRUE(serve::parse_response(payload, response));
        if (response.ok) {
            ++ok_replies;
        } else {
            EXPECT_EQ(response.error, serve::kErrOverloaded) << payload;
            ++overloaded;
        }
    }
    EXPECT_EQ(ok_replies + overloaded, n);
    EXPECT_GE(ok_replies, 1);

    const serve::ServerStatsSnapshot stats = server.stats();
    EXPECT_EQ(stats.overload_rejections,
              static_cast<std::uint64_t>(overloaded));
    server.stop();
}

TEST(ServeServer, SharedCacheCountsRepeatsAcrossConnections)
{
    serve::Server server(loopback_options(2));
    server.start();

    const FlatJsonFields params = {{"model", "kws"}, {"solar_cm2", "8"}};
    serve::Response first;
    serve::Response repeat;
    {
        serve::Client client = connect_to(server);
        ASSERT_TRUE(client.call("eval_design_point", params, first));
    }
    {
        serve::Client client = connect_to(server);
        client.set_next_id(1);  // same id => byte-identical full reply
        ASSERT_TRUE(client.call("eval_design_point", params, repeat));
    }
    EXPECT_TRUE(first.ok);
    EXPECT_EQ(first.raw, repeat.raw);

    const serve::ServerStatsSnapshot stats = server.stats();
    EXPECT_GE(stats.cache.hits, 1u);
    EXPECT_GE(stats.cache.insertions, 1u);
    server.stop();
}

// The headline determinism gate at test scale: 16 concurrent clients
// against a 4-thread server, every reply byte-compared against a fresh
// single-threaded server answering the same payloads serially.
TEST(ServeServer, SixteenClientRepliesMatchSingleThreadedServer)
{
    static const char* const kModels[] = {"kws", "har", "simple_conv"};
    static const char* const kTypes[] = {"eval_design_point",
                                         "eval_mapping"};
    const std::size_t per_client = 4;
    const std::size_t n_clients = 16;
    const std::size_t total = n_clients * per_client;

    // Deterministic payload table; request i carries id i+1.
    std::vector<std::string> payloads;
    serve::Client builder;  // unconnected: only build_request is used
    for (std::size_t i = 0; i < total; ++i) {
        FlatJsonFields params;
        params["model"] = kModels[i % 3];
        params["solar_cm2"] = std::to_string(4 + (i % 5));
        builder.set_next_id(i + 1);
        payloads.push_back(builder.build_request(
            kTypes[i % 2], params));
    }

    serve::Server loaded(loopback_options(4));
    loaded.start();
    std::vector<std::string> concurrent(total);
    std::atomic<int> failures{0};
    runtime::ThreadPool clients(static_cast<int>(n_clients));
    clients.parallel_for(n_clients, [&](std::size_t c) {
        serve::Client client(client_timeouts(60.0));
        if (!client.connect("127.0.0.1", loaded.port())) {
            failures.fetch_add(1);
            return;
        }
        for (std::size_t k = 0; k < per_client; ++k) {
            const std::size_t i = c * per_client + k;
            if (!client.send_frame(payloads[i]) ||
                !client.recv_frame(concurrent[i]))
                failures.fetch_add(1);
        }
    });
    loaded.stop();
    ASSERT_EQ(failures.load(), 0);

    serve::Server reference(loopback_options(1));
    reference.start();
    serve::Client serial = connect_to(reference);
    for (std::size_t i = 0; i < total; ++i) {
        std::string reply;
        ASSERT_TRUE(serial.send_frame(payloads[i]));
        ASSERT_TRUE(serial.recv_frame(reply));
        EXPECT_EQ(concurrent[i], reply) << "request " << i << ": "
                                        << payloads[i];
    }
    reference.stop();
}

}  // namespace
