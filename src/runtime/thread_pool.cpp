#include "runtime/thread_pool.hpp"

#include <atomic>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace chrysalis::runtime {

namespace {

/// Publishes one finished batch to the global metrics registry, if any.
/// Batch/task totals are schedule-invariant (the same parallel_for calls
/// happen at every thread count); the inline split is not (threads=1
/// runs everything inline), so it lands in the volatile section.
void
publish_batch(std::size_t tasks, bool ran_inline)
{
    obs::MetricsRegistry* registry = obs::metrics();
    if (registry == nullptr)
        return;
    registry->counter("runtime/pool/batches").add(1);
    registry->counter("runtime/pool/tasks").add(tasks);
    if (ran_inline) {
        registry
            ->counter("runtime/pool/inline_batches",
                      obs::Stability::kVolatile)
            .add(1);
    }
}

}  // namespace

}  // namespace chrysalis::runtime

namespace chrysalis::runtime {

namespace {

/// Set while the current thread is executing inside any pool batch; used
/// to run nested batches inline instead of deadlocking on the queue.
thread_local bool t_on_pool_thread = false;

/// Marks the current thread as running a pool task for the scope's
/// lifetime and restores the previous mark on every exit, a throw
/// included.
class PoolThreadScope
{
  public:
    PoolThreadScope() : previous_(t_on_pool_thread)
    {
        t_on_pool_thread = true;
    }
    ~PoolThreadScope() { t_on_pool_thread = previous_; }

    PoolThreadScope(const PoolThreadScope&) = delete;
    PoolThreadScope& operator=(const PoolThreadScope&) = delete;

  private:
    bool previous_;
};

}  // namespace

int
hardware_threads()
{
    const unsigned reported = std::thread::hardware_concurrency();
    return reported == 0 ? 1 : static_cast<int>(reported);
}

bool
ThreadPool::on_pool_thread()
{
    return t_on_pool_thread;
}

/// Shared state of one parallel_for call. Lives on the caller's stack;
/// parallel_for does not return until every runner has finished with it.
struct ThreadPool::Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> executed{0};
    std::atomic<bool> abort{false};
    Mutex mutex;
    CondVar done_cv;
    std::size_t pending_runners CHRYSALIS_GUARDED_BY(mutex) = 0;
    std::exception_ptr error CHRYSALIS_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(int threads)
{
    if (threads < 0)
        fatal("ThreadPool: thread count must be >= 0, got ", threads);
    threads_ = threads == 0 ? hardware_threads() : threads;
}

ThreadPool::~ThreadPool()
{
    // Take ownership of the worker handles under the lock, then join
    // outside it: the workers themselves reacquire queue_mutex_ to
    // drain, so joining with it held would deadlock.
    std::vector<std::thread> workers;
    {
        MutexLock lock(queue_mutex_);
        stopping_ = true;
        workers.swap(workers_);
    }
    queue_cv_.notify_all();
    for (auto& worker : workers)
        worker.join();
}

void
ThreadPool::ensure_workers()
{
    MutexLock lock(queue_mutex_);
    if (!workers_.empty())
        return;
    // The calling thread participates in every batch, so threads_ - 1
    // workers give exactly threads_ concurrent executors.
    workers_.reserve(static_cast<std::size_t>(threads_ - 1));
    for (int i = 0; i < threads_ - 1; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(queue_mutex_);
            while (!stopping_ && queue_.empty())
                queue_cv_.wait(queue_mutex_);
            if (queue_.empty())
                return;  // stopping and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::run_batch(Batch& batch)
{
    {
        const PoolThreadScope scope;
        while (!batch.abort.load(std::memory_order_relaxed)) {
            const std::size_t index =
                batch.next.fetch_add(1, std::memory_order_relaxed);
            if (index >= batch.count)
                break;
            try {
                (*batch.body)(index);
                batch.executed.fetch_add(1, std::memory_order_relaxed);
            } catch (...) {
                MutexLock lock(batch.mutex);
                if (!batch.error)
                    batch.error = std::current_exception();
                batch.abort.store(true, std::memory_order_relaxed);
            }
        }
    }
    {
        // Notify while holding the lock: the batch lives on the caller's
        // stack and is destroyed as soon as the waiter sees 0 pending
        // runners, so the notify must complete before that check can run.
        MutexLock lock(batch.mutex);
        --batch.pending_runners;
        batch.done_cv.notify_all();
    }
}

void
ThreadPool::parallel_for(std::size_t count,
                         const std::function<void(std::size_t)>& body)
{
    if (count == 0)
        return;

    if (threads_ == 1 || count == 1 || t_on_pool_thread) {
        // Serial fallback: index order, exceptions propagate directly.
        // This path is what `threads == 1` reproducibility rests on.
        // The body still runs as a pool task, so a pool it builds runs
        // inline too: the whole batch stays on this one thread.
        {
            const PoolThreadScope scope;
            for (std::size_t i = 0; i < count; ++i)
                body(i);
        }
        {
            MutexLock lock(stats_mutex_);
            ++stats_.batches;
            ++stats_.inline_batches;
            stats_.tasks += count;
        }
        publish_batch(count, /*ran_inline=*/true);
        return;
    }

    ensure_workers();
    Batch batch;
    batch.count = count;
    batch.body = &body;
    const std::size_t runners =
        std::min(static_cast<std::size_t>(threads_), count);
    {
        // No runner exists yet, but pending_runners is guarded and the
        // analysis (rightly) does not model "before publication".
        MutexLock lock(batch.mutex);
        batch.pending_runners = runners;
    }
    {
        MutexLock lock(queue_mutex_);
        for (std::size_t i = 0; i + 1 < runners; ++i)
            queue_.emplace_back([&batch, this] { run_batch(batch); });
        if (obs::MetricsRegistry* registry = obs::metrics()) {
            registry->gauge("runtime/pool/max_queue_depth")
                .set_max(static_cast<double>(queue_.size()));
            registry->gauge("runtime/pool/max_threads")
                .set_max(static_cast<double>(threads_));
        }
    }
    queue_cv_.notify_all();
    run_batch(batch);  // the caller is one of the runners

    std::exception_ptr error;
    {
        MutexLock lock(batch.mutex);
        while (batch.pending_runners != 0)
            batch.done_cv.wait(batch.mutex);
        // Copy out under the lock; batch.error is guarded by it.
        error = batch.error;
    }
    const std::size_t executed =
        batch.executed.load(std::memory_order_relaxed);
    {
        MutexLock lock(stats_mutex_);
        ++stats_.batches;
        stats_.tasks += executed;
    }
    publish_batch(executed, /*ran_inline=*/false);
    if (error)
        std::rethrow_exception(error);
}

PoolStats
ThreadPool::stats() const
{
    MutexLock lock(stats_mutex_);
    return stats_;
}

}  // namespace chrysalis::runtime
