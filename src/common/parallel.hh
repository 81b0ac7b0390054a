/**
 * @file
 * Shared parallel-execution layer: a small fixed-size thread pool with a
 * chunked parallel-for, the one construct every fan-out uses.
 *
 * Threading model
 *   - One process-wide pool (ThreadPool::global()), sized from the
 *     BOREAS_THREADS environment variable (default: hardware threads).
 *   - parallelFor() splits [begin, end) into chunks of at most `grain`
 *     and processes them on the pool; the calling thread participates.
 *   - Nested parallelism degrades to serial: a parallelFor issued from
 *     inside a pool worker runs inline on that worker. Outer fan-outs
 *     (one pipeline run per task) therefore automatically claim the
 *     whole pool while inner loops (GBT histograms) stay serial, and
 *     vice versa when a hot loop runs on the main thread.
 *
 * Determinism contract
 *   - At threads = 1 every construct runs inline on the caller, so
 *     results are bit-identical to a build without this layer.
 *   - Call sites are required to give each task its own output slot and
 *     its own RNG / pipeline state, and to merge results in task-index
 *     order. Under that discipline results are bit-identical for every
 *     thread count; tests/test_parallel.cc asserts it end-to-end.
 *
 * Exceptions thrown by chunks are captured and the first one is
 * rethrown on the calling thread.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace boreas
{

/** Fixed-size worker pool; see the file comment for the model. */
class ThreadPool
{
  public:
    /** Spawns threads - 1 workers (the caller is the remaining lane). */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallel lanes, including the calling thread. */
    int numThreads() const { return numThreads_; }

    /**
     * The process-wide pool, created on first use with
     * defaultThreads() lanes.
     */
    static ThreadPool &global();

    /**
     * Lane count of the global pool: BOREAS_THREADS if set (validated
     * via tryParseThreadCount; a malformed value is fatal), else
     * std::thread::hardware_concurrency().
     */
    static int defaultThreads();

    /**
     * Replace the global pool (testing only; callers must not hold
     * references across this call and no work may be in flight).
     */
    static void resetGlobal(int threads);

    /** True when the calling thread is a worker of *any* pool. */
    static bool inWorker();

    /**
     * Chunked parallel loop: invoke fn(chunk_begin, chunk_end) for
     * consecutive chunks of at most `grain` elements covering
     * [begin, end). Runs inline (serial, in order) when the pool has
     * one lane, the range fits a single grain, or the caller is
     * already a pool worker.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn);

  private:
    /** Enqueue one opaque task (a parallelFor batch's drain loop). */
    void submit(std::function<void()> task);
    void workerLoop();

    int numThreads_ = 1;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Element-wise convenience wrapper over the global pool:
 * fn(i) for i in [begin, end).
 */
void parallelForEach(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t)> &fn);

/** Largest lane count a BOREAS_THREADS override may request. */
constexpr int kMaxThreadOverride = 4096;

/**
 * Strict parse of a BOREAS_THREADS-style lane count: the whole string
 * must be one base-10 integer in [1, kMaxThreadOverride]. Trailing
 * junk ("8x"), empty strings, overflowing digits and out-of-range
 * values all fail — std::atoi silently accepted the first two and had
 * undefined behaviour on the third. On success *out holds the count.
 */
bool tryParseThreadCount(const char *text, int *out);

} // namespace boreas
