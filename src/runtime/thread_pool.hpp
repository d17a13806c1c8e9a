/// \file
/// Fixed-size work-queue thread pool with batch-parallel helpers.
///
/// The pool backs every parallel hot loop in the framework (GA population
/// fitness, NSGA-II offspring evaluation, campaign case fan-out). Its
/// design contract is *determinism first*:
///
///  - `threads == 1` executes every batch inline on the calling thread,
///    in index order, reproducing the serial code path bit-for-bit;
///  - `parallel_for`/`parallel_map` assign work by index, so callers that
///    reduce results in index order observe identical outcomes at any
///    thread count (provided the body is pure per index);
///  - a `parallel_for` issued from inside a pool task — the same pool or
///    any other — runs inline, so nested parallelism degrades gracefully
///    instead of deadlocking or oversubscribing the machine. A body run
///    by the serial fallback counts as a pool task too, so a serial
///    outer level keeps the whole batch on the calling thread.
///
/// Workers are spawned lazily on the first non-inline batch, so pools
/// constructed on (or delegating to) worker threads cost nothing.

#ifndef CHRYSALIS_RUNTIME_THREAD_POOL_HPP
#define CHRYSALIS_RUNTIME_THREAD_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace chrysalis::runtime {

/// Number of hardware threads, never less than 1 (the standard allows
/// `hardware_concurrency()` to return 0 when unknown).
int hardware_threads();

/// Counters for one pool's lifetime (all batches since construction).
struct PoolStats {
    std::uint64_t tasks = 0;           ///< individual work items executed
    std::uint64_t batches = 0;         ///< parallel_for/map invocations
    std::uint64_t inline_batches = 0;  ///< batches that ran serially
};

/// Fixed-size pool; see the file comment for the determinism contract.
class ThreadPool
{
  public:
    /// \param threads worker count; 0 means hardware_threads().
    explicit ThreadPool(int threads = 0);

    /// Joins all workers. Outstanding batches are completed first (the
    /// only way to have one is a concurrent parallel_for, which blocks
    /// its caller until done).
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Resolved parallelism (>= 1).
    int thread_count() const { return threads_; }

    /// Runs `body(0) .. body(count-1)`, distributing indices across the
    /// pool dynamically, and returns when all have completed. If any
    /// invocation throws, remaining un-started indices are abandoned and
    /// the first captured exception is rethrown to the caller. Runs
    /// inline (serially, in index order) when `count <= 1`, when the pool
    /// has a single thread, or when called from inside any pool task;
    /// either way `body` runs with on_pool_thread() true.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& body);

    /// Maps `fn` over `[0, count)` into an index-ordered vector. The
    /// element type must be default-constructible.
    template <typename Fn>
    auto
    parallel_map(std::size_t count, Fn&& fn)
        -> std::vector<decltype(fn(std::size_t{}))>
    {
        std::vector<decltype(fn(std::size_t{}))> results(count);
        parallel_for(count,
                     [&](std::size_t i) { results[i] = fn(i); });
        return results;
    }

    /// Snapshot of the lifetime counters.
    PoolStats stats() const;

    /// True when the calling thread is currently executing a pool task
    /// (of any ThreadPool instance).
    static bool on_pool_thread();

  private:
    struct Batch;

    void ensure_workers();
    void worker_loop();
    void run_batch(Batch& batch);

    int threads_ = 1;

    Mutex queue_mutex_;
    CondVar queue_cv_;
    std::deque<std::function<void()>> queue_
        CHRYSALIS_GUARDED_BY(queue_mutex_);
    std::vector<std::thread> workers_ CHRYSALIS_GUARDED_BY(queue_mutex_);
    bool stopping_ CHRYSALIS_GUARDED_BY(queue_mutex_) = false;

    mutable Mutex stats_mutex_;
    PoolStats stats_ CHRYSALIS_GUARDED_BY(stats_mutex_);
};

}  // namespace chrysalis::runtime

#endif  // CHRYSALIS_RUNTIME_THREAD_POOL_HPP
