/// \file
/// Tests for the network fault injector: spec validation, seed
/// determinism and query-order independence, per-class streams and
/// activation accounting.

#include "fault/net_fault_injector.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace chrysalis::fault {
namespace {

NetFaultSpec
storm_spec(std::uint64_t seed = 42)
{
    NetFaultSpec spec;
    spec.seed = seed;
    spec.connect_refusal_probability = 0.3;
    spec.accept_stall_probability = 0.25;
    spec.accept_stall_s = 0.004;
    spec.torn_write_probability = 0.5;
    spec.torn_write_chunk_bytes = 5;
    spec.torn_write_stall_s = 0.001;
    spec.reset_probability = 0.2;
    spec.read_delay_probability = 0.4;
    spec.read_delay_s = 0.003;
    return spec;
}

TEST(NetFaultSpecDeathTest, ValidationRejectsOutOfRangeFields)
{
    NetFaultSpec bad_probability;
    bad_probability.torn_write_probability = 1.5;
    EXPECT_EXIT(bad_probability.validate(),
                ::testing::ExitedWithCode(1), "torn_write_probability");

    NetFaultSpec negative_probability;
    negative_probability.connect_refusal_probability = -0.1;
    EXPECT_EXIT(negative_probability.validate(),
                ::testing::ExitedWithCode(1),
                "connect_refusal_probability");

    NetFaultSpec bad_chunk;
    bad_chunk.torn_write_chunk_bytes = 0;
    EXPECT_EXIT(bad_chunk.validate(), ::testing::ExitedWithCode(1),
                "torn_write_chunk_bytes");

    NetFaultSpec bad_stall;
    bad_stall.accept_stall_s = -1.0;
    EXPECT_EXIT(bad_stall.validate(), ::testing::ExitedWithCode(1),
                "accept_stall_s");
}

TEST(NetFaultInjectorTest, DefaultSpecInjectsNothing)
{
    const NetFaultSpec spec;
    EXPECT_FALSE(spec.any_active());
    const NetFaultInjector injector(spec);
    for (std::uint64_t i = 0; i < 200; ++i) {
        EXPECT_FALSE(injector.refuse_connect(i));
        EXPECT_EQ(injector.accept_stall(i), 0.0);
        EXPECT_EQ(injector.write_cap_bytes(7, i), SIZE_MAX);
        EXPECT_FALSE(injector.reset_after_write(7, i));
        EXPECT_EQ(injector.read_delay(7, i), 0.0);
    }
    EXPECT_EQ(injector.activation_counts().total(), 0u);
}

TEST(NetFaultInjectorTest, SameSeedReplaysExactly)
{
    const NetFaultInjector first(storm_spec(7));
    const NetFaultInjector second(storm_spec(7));
    for (std::uint64_t connection = 1; connection <= 8; ++connection) {
        for (std::uint64_t op = 0; op < 64; ++op) {
            EXPECT_EQ(first.refuse_connect(op), second.refuse_connect(op));
            EXPECT_EQ(first.accept_stall(op), second.accept_stall(op));
            EXPECT_EQ(first.write_cap_bytes(connection, op),
                      second.write_cap_bytes(connection, op));
            EXPECT_EQ(first.reset_after_write(connection, op),
                      second.reset_after_write(connection, op));
            EXPECT_EQ(first.read_delay(connection, op),
                      second.read_delay(connection, op));
        }
    }
}

TEST(NetFaultInjectorTest, AnswersAreIndependentOfQueryOrder)
{
    // Decisions are pure functions of (seed, stream, connection, op):
    // a backward sweep must agree with a forward one exactly.
    const NetFaultInjector injector(storm_spec());
    std::vector<std::size_t> forward;
    for (std::uint64_t op = 0; op < 256; ++op)
        forward.push_back(injector.write_cap_bytes(3, op));
    for (std::uint64_t op = 256; op-- > 0;)
        EXPECT_EQ(injector.write_cap_bytes(3, op),
                  forward[static_cast<std::size_t>(op)])
            << op;
}

TEST(NetFaultInjectorTest, DifferentSeedsGiveDifferentSchedules)
{
    const NetFaultInjector first(storm_spec(1));
    const NetFaultInjector second(storm_spec(2));
    int differences = 0;
    for (std::uint64_t op = 0; op < 256; ++op) {
        if (first.reset_after_write(1, op) !=
            second.reset_after_write(1, op))
            ++differences;
    }
    EXPECT_GT(differences, 0);
}

TEST(NetFaultInjectorTest, FaultClassesUseIndependentStreams)
{
    // With every probability at 0.5, the torn-write and reset decisions
    // for the same (connection, op) must not be mirror images of each
    // other across the sweep — distinct stream constants decorrelate
    // the classes.
    NetFaultSpec spec;
    spec.seed = 99;
    spec.torn_write_probability = 0.5;
    spec.reset_probability = 0.5;
    const NetFaultInjector injector(spec);
    int agree = 0;
    const int sweeps = 512;
    for (std::uint64_t op = 0; op < sweeps; ++op) {
        const bool torn = injector.write_cap_bytes(1, op) != SIZE_MAX;
        const bool reset = injector.reset_after_write(1, op);
        if (torn == reset)
            ++agree;
    }
    EXPECT_GT(agree, sweeps / 4);
    EXPECT_LT(agree, 3 * sweeps / 4);
}

TEST(NetFaultInjectorTest, CertainProbabilitiesFireEveryTime)
{
    NetFaultSpec spec;
    spec.seed = 5;
    spec.connect_refusal_probability = 1.0;
    spec.torn_write_probability = 1.0;
    spec.torn_write_chunk_bytes = 3;
    spec.reset_probability = 1.0;
    spec.read_delay_probability = 1.0;
    spec.accept_stall_probability = 1.0;
    const NetFaultInjector injector(spec);
    for (std::uint64_t op = 0; op < 32; ++op) {
        EXPECT_TRUE(injector.refuse_connect(op));
        EXPECT_GT(injector.accept_stall(op), 0.0);
        EXPECT_EQ(injector.write_cap_bytes(1, op), 3u);
        EXPECT_TRUE(injector.reset_after_write(1, op));
        EXPECT_GT(injector.read_delay(1, op), 0.0);
    }
    const NetFaultInjector::ActivationCounts counts =
        injector.activation_counts();
    EXPECT_EQ(counts.connect_refusals, 32u);
    EXPECT_EQ(counts.accept_stalls, 32u);
    EXPECT_EQ(counts.torn_writes, 32u);
    EXPECT_EQ(counts.resets, 32u);
    EXPECT_EQ(counts.read_delays, 32u);
    EXPECT_EQ(counts.total(), 5u * 32u);
}

TEST(NetFaultInjectorTest, DescribeNamesActiveClasses)
{
    const std::string text = NetFaultInjector(storm_spec()).describe();
    EXPECT_NE(text.find("torn"), std::string::npos);
    EXPECT_NE(text.find("reset"), std::string::npos);
    EXPECT_NE(text.find("refuse"), std::string::npos);
}

}  // namespace
}  // namespace chrysalis::fault
