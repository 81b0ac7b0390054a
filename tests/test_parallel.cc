/**
 * @file
 * Tests of the shared parallel-execution layer: pool/task-group
 * correctness (coverage, exception propagation, nested degradation)
 * and the end-to-end determinism contract — a fanned-out sweep must
 * produce bit-identical results at every thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "boreas/dataset_builder.hh"
#include "boreas/pipeline.hh"
#include "common/parallel.hh"
#include "test_util.hh"
#include "workload/spec2006.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;

namespace
{

/** Restores the global pool to its default size on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard()
    {
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

} // namespace

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr int kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(0, kN, 7, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            hits[i].fetch_add(1);
    });
    for (int i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForSerialFastPathPreservesOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(0, 10, 3, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            order.push_back(static_cast<int>(i));
    });
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1,
                         [&](int64_t lo, int64_t) {
                             if (lo == 42)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDegradesToSerial)
{
    ThreadPool pool(4);
    std::atomic<int> nested_escapes{0};
    pool.parallelFor(0, 8, 1, [&](int64_t, int64_t) {
        EXPECT_TRUE(ThreadPool::inWorker());
        // Thread identity is the assertion here.
        // boreas-lint: allow(wall-clock)
        const std::thread::id outer = std::this_thread::get_id();
        // A nested loop must run inline on the same thread.
        pool.parallelFor(0, 16, 1, [&](int64_t, int64_t) {
            if (std::this_thread::get_id() != outer) // boreas-lint: allow(wall-clock)
                nested_escapes.fetch_add(1);
        });
    });
    EXPECT_EQ(nested_escapes.load(), 0);
}

TEST(ThreadPool, DefaultThreadsHonorsEnvOverride)
{
    // Only checks the parsing contract when the variable is set by the
    // harness; without it the hardware default must be >= 1.
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, TryParseThreadCountAcceptsWholeIntegersOnly)
{
    int n = 0;
    EXPECT_TRUE(tryParseThreadCount("1", &n));
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(tryParseThreadCount("8", &n));
    EXPECT_EQ(n, 8);
    EXPECT_TRUE(tryParseThreadCount("4096", &n));
    EXPECT_EQ(n, kMaxThreadOverride);
    // strtol skips leading whitespace; full consumption still holds.
    EXPECT_TRUE(tryParseThreadCount(" 8", &n));
    EXPECT_EQ(n, 8);
}

TEST(ThreadPool, TryParseThreadCountRejectsJunkAndOverflow)
{
    int n = -1;
    // Trailing junk: std::atoi silently returned 8 for "8x".
    EXPECT_FALSE(tryParseThreadCount("8x", &n));
    EXPECT_FALSE(tryParseThreadCount("8 ", &n));
    EXPECT_FALSE(tryParseThreadCount("x8", &n));
    EXPECT_FALSE(tryParseThreadCount("0x8", &n));
    EXPECT_FALSE(tryParseThreadCount("8.0", &n));
    // Nothing parsed at all.
    EXPECT_FALSE(tryParseThreadCount("", &n));
    EXPECT_FALSE(tryParseThreadCount(" ", &n));
    EXPECT_FALSE(tryParseThreadCount(nullptr, &n));
    // Out of the sane range (including values that overflow long,
    // where std::atoi's behaviour was undefined).
    EXPECT_FALSE(tryParseThreadCount("0", &n));
    EXPECT_FALSE(tryParseThreadCount("-4", &n));
    EXPECT_FALSE(tryParseThreadCount("4097", &n));
    EXPECT_FALSE(tryParseThreadCount("99999999999999999999999", &n));
    // A rejected parse never writes the output.
    EXPECT_EQ(n, -1);
}

TEST(ThreadPoolDeathTest, DefaultThreadsFatalsOnMalformedEnv)
{
    EXPECT_DEATH(
        {
            setenv("BOREAS_THREADS", "8x", 1);
            ThreadPool::defaultThreads();
        },
        "BOREAS_THREADS must be an integer");
}

namespace
{

/** Fan a 2-workload x 2-frequency sweep out over the global pool. */
std::vector<RunResult>
sweepRuns()
{
    const SourceSet wls = wrapSpecs({
        &findWorkload("bzip2"), &findWorkload("gamess")});
    const std::vector<GHz> freqs{3.75, 4.5};
    constexpr int kSteps = 48;

    std::vector<RunResult> out(wls.sources.size() * freqs.size());
    parallelForEach(
        0, static_cast<int64_t>(out.size()), 1, [&](int64_t i) {
            SimulationPipeline pipeline(fastPipelineConfig());
            const size_t wi = static_cast<size_t>(i) / freqs.size();
            const size_t fi = static_cast<size_t>(i) % freqs.size();
            const auto src = wls.sources[wi]->clone();
            out[i] = pipeline.runConstantFrequency(
                *src, 7 + src->groupId(), freqs[fi], kSteps);
        });
    return out;
}

/** Bitwise comparison of the telemetry that feeds every figure. */
void
expectIdenticalRuns(const std::vector<RunResult> &a,
                    const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
        ASSERT_EQ(a[r].steps.size(), b[r].steps.size());
        ASSERT_EQ(a[r].decidedFreqs, b[r].decidedFreqs);
        for (size_t s = 0; s < a[r].steps.size(); ++s) {
            const StepRecord &x = a[r].steps[s];
            const StepRecord &y = b[r].steps[s];
            ASSERT_EQ(x.frequency, y.frequency);
            ASSERT_EQ(x.voltage, y.voltage);
            ASSERT_EQ(x.totalPower, y.totalPower);
            ASSERT_EQ(x.severity.maxSeverity, y.severity.maxSeverity);
            ASSERT_EQ(x.sensorReadings, y.sensorReadings);
            ASSERT_EQ(x.sensorTrue, y.sensorTrue);
        }
    }
}

} // namespace

TEST(Determinism, SweepIsIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard guard;

    ThreadPool::resetGlobal(1);
    const std::vector<RunResult> serial = sweepRuns();

    ThreadPool::resetGlobal(8);
    const std::vector<RunResult> threaded = sweepRuns();

    expectIdenticalRuns(serial, threaded);
}

TEST(Determinism, TrainingDataIsIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard guard;

    DatasetConfig cfg;
    cfg.frequencies = {3.75, 4.5};
    cfg.walkSegments = 2;
    cfg.traceSteps = 48;
    const SourceSet wls = wrapSpecs({
        &findWorkload("povray"), &findWorkload("mcf")});

    ThreadPool::resetGlobal(1);
    SimulationPipeline p1(fastPipelineConfig());
    const BuiltData serial = buildTrainingData(p1, wls.sources, cfg);

    ThreadPool::resetGlobal(8);
    SimulationPipeline p8(fastPipelineConfig());
    const BuiltData threaded = buildTrainingData(p8, wls.sources, cfg);

    ASSERT_EQ(serial.severity.numRows(), threaded.severity.numRows());
    ASSERT_EQ(serial.severity.numFeatures(),
              threaded.severity.numFeatures());
    for (size_t r = 0; r < serial.severity.numRows(); ++r) {
        ASSERT_EQ(serial.severity.y(r), threaded.severity.y(r));
        ASSERT_EQ(serial.severity.group(r), threaded.severity.group(r));
        for (size_t f = 0; f < serial.severity.numFeatures(); ++f)
            ASSERT_EQ(serial.severity.x(r, f), threaded.severity.x(r, f));
    }
    ASSERT_EQ(serial.phaseSamples.size(), threaded.phaseSamples.size());
    for (size_t i = 0; i < serial.phaseSamples.size(); ++i) {
        ASSERT_EQ(serial.phaseSamples[i].tempNow,
                  threaded.phaseSamples[i].tempNow);
        ASSERT_EQ(serial.phaseSamples[i].tempNext,
                  threaded.phaseSamples[i].tempNext);
        ASSERT_EQ(serial.phaseSamples[i].freqIndex,
                  threaded.phaseSamples[i].freqIndex);
        ASSERT_EQ(serial.phaseSamples[i].counters,
                  threaded.phaseSamples[i].counters);
    }
}
