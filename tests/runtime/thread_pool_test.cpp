/// \file
/// Tests for the runtime thread pool: coverage, ordering guarantees,
/// exception propagation, nested batches and the serial fallback.

#include "runtime/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace chrysalis::runtime {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsAtLeastOne)
{
    EXPECT_GE(hardware_threads(), 1);
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareThreads)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), hardware_threads());
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(pool.stats().batches, 0u);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInIndexOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;  // no mutex: must stay single-threaded
    std::vector<PoolStats> nested;
    pool.parallel_for(16, [&](std::size_t i) {
        order.push_back(i);
        // The serial body is a pool task: a pool it builds stays inline
        // instead of spawning workers behind the serial outer level.
        EXPECT_TRUE(ThreadPool::on_pool_thread());
        ThreadPool inner(4);
        inner.parallel_for(8, [](std::size_t) {});
        nested.push_back(inner.stats());
    });
    EXPECT_FALSE(ThreadPool::on_pool_thread());
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    for (const PoolStats& inner : nested)
        EXPECT_EQ(inner.inline_batches, 1u);
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.inline_batches, 1u);
    EXPECT_EQ(stats.tasks, 16u);

    // A batch of one on a wide pool takes the same serial path.
    ThreadPool wide(4);
    wide.parallel_for(1, [](std::size_t) {
        EXPECT_TRUE(ThreadPool::on_pool_thread());
    });
    EXPECT_FALSE(ThreadPool::on_pool_thread());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> visits(kCount);
    pool.parallel_for(kCount, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(visits[i].load(), 1) << i;
    EXPECT_EQ(pool.stats().tasks, kCount);
}

TEST(ThreadPoolTest, ParallelMapIsIndexOrdered)
{
    ThreadPool pool(4);
    const auto squares =
        pool.parallel_map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(64,
                                   [](std::size_t i) {
                                       if (i == 13)
                                           throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsUsableAfterAnException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(
                     8, [](std::size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> done{0};
    pool.parallel_for(32, [&](std::size_t) {
        done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, ExceptionOnSerialFallbackPropagates)
{
    ThreadPool pool(1);
    bool marked = false;
    EXPECT_THROW(pool.parallel_for(4,
                                   [&](std::size_t) {
                                       marked = ThreadPool::on_pool_thread();
                                       throw std::runtime_error("s");
                                   }),
                 std::runtime_error);
    EXPECT_TRUE(marked);
    // The throw must not leave the caller marked as a pool thread, or
    // every later batch it issues would silently run inline.
    EXPECT_FALSE(ThreadPool::on_pool_thread());
}

TEST(ThreadPoolTest, NestedParallelForOnSamePoolCompletes)
{
    ThreadPool pool(4);
    std::atomic<int> leaves{0};
    pool.parallel_for(8, [&](std::size_t) {
        // Inside a pool task: must run inline, not deadlock on the queue.
        EXPECT_TRUE(ThreadPool::on_pool_thread());
        pool.parallel_for(8, [&](std::size_t) {
            leaves.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, NestedBatchOnADifferentPoolRunsInline)
{
    ThreadPool outer(4);
    std::atomic<int> leaves{0};
    outer.parallel_for(4, [&](std::size_t) {
        ThreadPool inner(4);
        inner.parallel_for(16, [&](std::size_t) {
            leaves.fetch_add(1, std::memory_order_relaxed);
        });
        // Every inner batch must have taken the inline path.
        EXPECT_EQ(inner.stats().inline_batches, inner.stats().batches);
    });
    EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolTest, ManyBatchesReuseTheSamePool)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 50; ++round) {
        pool.parallel_for(20, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 1000u);
    EXPECT_EQ(pool.stats().batches, 50u);
    EXPECT_EQ(pool.stats().tasks, 1000u);
}

TEST(ThreadPoolTest, ParallelSummationMatchesSerial)
{
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    const auto terms = pool.parallel_map(
        kCount, [](std::size_t i) { return static_cast<double>(i) * 0.5; });
    const double parallel_sum =
        std::accumulate(terms.begin(), terms.end(), 0.0);
    double serial_sum = 0.0;
    for (std::size_t i = 0; i < kCount; ++i)
        serial_sum += static_cast<double>(i) * 0.5;
    // Index-ordered reduction: bit-identical, not merely approximate.
    EXPECT_EQ(parallel_sum, serial_sum);
}

TEST(ThreadPoolDeathTest, NegativeThreadCountIsFatal)
{
    EXPECT_EXIT(ThreadPool(-1), ::testing::ExitedWithCode(1),
                "thread count");
}

}  // namespace
}  // namespace chrysalis::runtime
