#include "common/parallel.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace boreas
{

namespace
{

/** Set while a thread is executing pool work (any pool). */
thread_local bool t_in_worker = false;

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    boreas_assert(threads >= 1, "thread pool needs >= 1 lane, got %d",
                  threads);
    numThreads_ = threads;
    workers_.reserve(static_cast<size_t>(threads - 1));
    for (int i = 0; i < threads - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    t_in_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        boreas_assert(!stop_, "submit() on a stopping pool");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

bool
tryParseThreadCount(const char *text, int *out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    const long n = std::strtol(text, &end, 10);
    // Full consumption: strtol stopping early means trailing junk
    // ("8x") or no digits at all ("x8", " "); errno catches digit
    // strings outside long's range before the int cast could wrap.
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    if (n < 1 || n > kMaxThreadOverride)
        return false;
    *out = static_cast<int>(n);
    return true;
}

int
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("BOREAS_THREADS")) {
        int n = 0;
        if (!tryParseThreadCount(env, &n)) {
            boreas_fatal("BOREAS_THREADS must be an integer in "
                         "[1, %d], got '%s'", kMaxThreadOverride, env);
        }
        return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_pool)
        g_global_pool = std::make_unique<ThreadPool>(defaultThreads());
    return *g_global_pool;
}

void
ThreadPool::resetGlobal(int threads)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_pool = std::make_unique<ThreadPool>(threads);
}

bool
ThreadPool::inWorker()
{
    return t_in_worker;
}

namespace
{

/** Shared state of one parallelFor batch. */
struct ForBatch
{
    const std::function<void(int64_t, int64_t)> *fn = nullptr;
    int64_t begin = 0;
    int64_t grain = 1;
    int64_t numChunks = 0;
    std::atomic<int64_t> nextChunk{0};
    std::atomic<int64_t> doneChunks{0};
    std::atomic<bool> abort{false};

    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error; ///< guarded by mutex

    int64_t end = 0;

    /** Claim and run chunks until none remain. */
    void
    drain()
    {
        for (;;) {
            const int64_t c =
                nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= numChunks)
                return;
            if (!abort.load(std::memory_order_relaxed)) {
                const int64_t lo = begin + c * grain;
                const int64_t hi = std::min(end, lo + grain);
                try {
                    (*fn)(lo, hi);
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        if (!error)
                            error = std::current_exception();
                    }
                    abort.store(true, std::memory_order_relaxed);
                }
            }
            const int64_t done =
                doneChunks.fetch_add(1, std::memory_order_acq_rel) + 1;
            if (done == numChunks) {
                std::lock_guard<std::mutex> lock(mutex);
                cv.notify_all();
            }
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)> &fn)
{
    if (begin >= end)
        return;
    boreas_assert(grain >= 1, "parallelFor grain must be >= 1");
    obs::MetricsRegistry::global().add("parallel.for.calls");

    // Serial fast paths: one lane, a single chunk, or nested use from
    // inside a worker (which would otherwise deadlock-prone steal the
    // pool from the outer batch).
    if (numThreads_ <= 1 || end - begin <= grain || t_in_worker) {
        obs::MetricsRegistry::global().add("parallel.for.inline");
        for (int64_t lo = begin; lo < end; lo += grain)
            fn(lo, std::min(end, lo + grain));
        return;
    }

    auto batch = std::make_shared<ForBatch>();
    batch->fn = &fn;
    batch->begin = begin;
    batch->end = end;
    batch->grain = grain;
    batch->numChunks = (end - begin + grain - 1) / grain;
    {
        obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
        metrics.add("parallel.for.fanouts");
        metrics.add("parallel.for.chunks",
                    static_cast<uint64_t>(batch->numChunks));
    }

    // One helper per lane beyond the caller, capped by the chunk count
    // (a helper that finds no chunk exits immediately anyway).
    const int64_t helpers = std::min<int64_t>(numThreads_ - 1,
                                              batch->numChunks - 1);
    for (int64_t i = 0; i < helpers; ++i)
        submit([batch] { batch->drain(); });

    // The caller participates as a lane; while draining it counts as
    // pool work so parallelFor nested under its chunks degrades to
    // serial just like on the spawned workers.
    t_in_worker = true;
    batch->drain();
    t_in_worker = false;

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] {
        return batch->doneChunks.load(std::memory_order_acquire) ==
            batch->numChunks;
    });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

void
parallelForEach(int64_t begin, int64_t end, int64_t grain,
                const std::function<void(int64_t)> &fn)
{
    ThreadPool::global().parallelFor(
        begin, end, grain, [&fn](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                fn(i);
        });
}

} // namespace boreas
