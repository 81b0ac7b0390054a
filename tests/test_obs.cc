/**
 * @file
 * Tests for the observability layer (DESIGN.md §8): deterministic
 * metric merging across thread counts, zero-cost disabled behavior,
 * trace buffer JSON, and the BENCH_<id>.json artifact schema (golden).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/parallel.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace boreas;
using obs::HistogramData;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceBuffer;

namespace
{

/** Restores the global pool and disables obs on scope exit. */
struct ObsGuard
{
    ~ObsGuard()
    {
        MetricsRegistry::global().setEnabled(false);
        MetricsRegistry::global().reset();
        TraceBuffer::global().setEnabled(false);
        TraceBuffer::global().clear();
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

/**
 * A parallel region that updates counters and histograms from every
 * worker. Histogram samples are small integers, so even the FP sum is
 * exact and must merge identically at any thread count.
 */
MetricsSnapshot
fanOutAndSnapshot(int threads)
{
    ThreadPool::resetGlobal(threads);
    MetricsRegistry::global().reset();
    constexpr int64_t kItems = 4096;
    parallelForEach(0, kItems, 64, [](int64_t i) {
        MetricsRegistry::global().add("test.items");
        MetricsRegistry::global().add("test.weight",
                                      static_cast<uint64_t>(i % 7));
        MetricsRegistry::global().observe(
            "test.hist", static_cast<double>(1 << (i % 10)));
    });
    return MetricsRegistry::global().snapshot();
}

} // namespace

TEST(Metrics, MergeIsIdenticalAt1And8Threads)
{
    ObsGuard guard;
    MetricsRegistry::global().setEnabled(true);

    const MetricsSnapshot serial = fanOutAndSnapshot(1);
    const MetricsSnapshot threaded = fanOutAndSnapshot(8);

    // The parallel.for.* scheduling counters describe the schedule
    // itself (inline at 1 thread, fan-out at 8), so only the workload's
    // own counters are subject to the determinism contract.
    EXPECT_EQ(serial.counters.at("test.items"),
              threaded.counters.at("test.items"));
    EXPECT_EQ(serial.counters.at("test.weight"),
              threaded.counters.at("test.weight"));
    EXPECT_EQ(serial.counters.at("test.items"), 4096u);

    ASSERT_EQ(serial.histograms.size(), threaded.histograms.size());
    const HistogramData &a = serial.histograms.at("test.hist");
    const HistogramData &b = threaded.histograms.at("test.hist");
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.buckets, b.buckets);
    // Samples are small powers of two: FP addition is exact, so even
    // the informational fields must agree here.
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
}

TEST(Metrics, DisabledUpdatesAreDropped)
{
    ObsGuard guard;
    MetricsRegistry::global().setEnabled(false);
    MetricsRegistry::global().reset();

    MetricsRegistry::global().add("test.off");
    MetricsRegistry::global().set("test.off.gauge", 1.0);
    MetricsRegistry::global().observe("test.off.hist", 1.0);

    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counters.count("test.off"), 0u);
    EXPECT_EQ(snap.gauges.count("test.off.gauge"), 0u);
    EXPECT_EQ(snap.histograms.count("test.off.hist"), 0u);
}

TEST(Metrics, ResetClearsEverything)
{
    ObsGuard guard;
    MetricsRegistry::global().setEnabled(true);
    MetricsRegistry::global().reset();
    MetricsRegistry::global().add("test.reset", 3);
    MetricsRegistry::global().set("test.reset.gauge", 2.5);
    MetricsRegistry::global().observe("test.reset.hist", 4.0);
    MetricsRegistry::global().reset();

    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    EXPECT_EQ(snap.counters.count("test.reset"), 0u);
    EXPECT_EQ(snap.gauges.count("test.reset.gauge"), 0u);
    EXPECT_EQ(snap.histograms.count("test.reset.hist"), 0u);
}

TEST(Metrics, HistogramBucketsBracketTheirValues)
{
    for (double v : {0.01, 0.5, 1.0, 3.0, 80.0, 1e6}) {
        const size_t b = HistogramData::bucketFor(v);
        EXPECT_LE(v, HistogramData::bucketUpperBound(b))
            << "value " << v << " above its bucket's upper bound";
        if (b > 0) {
            EXPECT_GT(v, HistogramData::bucketUpperBound(b - 1))
                << "value " << v << " fits the previous bucket too";
        }
    }
    // Non-positive samples land in bucket 0 instead of UB.
    EXPECT_EQ(HistogramData::bucketFor(0.0), 0u);
    EXPECT_EQ(HistogramData::bucketFor(-5.0), 0u);
}

TEST(Trace, ScopedTimerFeedsHistogramAndBuffer)
{
    ObsGuard guard;
    obs::setEnabled(true);
    MetricsRegistry::global().reset();
    TraceBuffer::global().clear();

    {
        obs::ScopedTimer timer("test.stage");
    }

    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    ASSERT_EQ(snap.histograms.count("test.stage"), 1u);
    EXPECT_EQ(snap.histograms.at("test.stage").count, 1u);
    EXPECT_EQ(TraceBuffer::global().eventCount(), 1u);
}

TEST(Trace, WriteJsonIsSortedAndWellFormed)
{
    ObsGuard guard;
    TraceBuffer::global().setEnabled(true);
    TraceBuffer::global().clear();
    TraceBuffer::global().record("later", 20.0, 1.5);
    TraceBuffer::global().record("earlier", 10.0, 2.0);

    std::ostringstream os;
    TraceBuffer::global().writeJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    const auto earlier = json.find("earlier");
    const auto later = json.find("later");
    ASSERT_NE(earlier, std::string::npos);
    ASSERT_NE(later, std::string::npos);
    EXPECT_LT(earlier, later) << "events must be sorted by start time";

    TraceBuffer::global().clear();
    EXPECT_EQ(TraceBuffer::global().eventCount(), 0u);
}

TEST(Export, GoldenBenchArtifact)
{
    // Byte-exact golden of the "boreas-bench-v1" schema. If this test
    // fails because the schema intentionally changed, bump the schema
    // key in obs/export.hh and update the golden together.
    obs::BenchArtifact artifact;
    artifact.manifest.experiment = "golden";
    artifact.manifest.scale = "small";
    artifact.manifest.threads = 2;
    artifact.manifest.seed = 7;
    artifact.manifest.runHash = 0x1234;
    artifact.manifest.hasRunHash = true;
    artifact.manifest.wallSeconds = 0.5;
    artifact.manifest.addConfig("note", "hand-built");
    artifact.manifest.addConfig("grid", "64");
    artifact.comparisons.push_back({"grid step [MHz]", "250", "250"});
    artifact.comparisons.push_back({"avg gain", "+5.7%", "+5.5%"});
    artifact.series.push_back({"s", {"a", "b"}, {{"1", "x"},
                                                 {"2.5", "+3"}}});
    artifact.metrics.counters["steps"] = 42;
    artifact.metrics.gauges["temp"] = 1.5;
    HistogramData h;
    h.count = 1;
    h.sum = 2.0;
    h.min = 2.0;
    h.max = 2.0;
    h.buckets[HistogramData::bucketFor(2.0)] = 1;
    artifact.metrics.histograms["t"] = h;

    std::ostringstream os;
    obs::writeBenchArtifact(artifact, os);

    const std::string golden = R"({
  "schema": "boreas-bench-v1",
  "id": "golden",
  "manifest": {
    "experiment": "golden",
    "scale": "small",
    "threads": 2,
    "seed": 7,
    "run_hash": "0x0000000000001234",
    "wall_s": 0.5,
    "config": {
      "note": "hand-built",
      "grid": 64
    }
  },
  "paper_vs_measured": [
    {"quantity": "grid step [MHz]", "paper": 250, "measured": 250},
    {"quantity": "avg gain", "paper": "+5.7%", "measured": "+5.5%"}
  ],
  "series": [
    {"name": "s",
     "columns": ["a", "b"],
     "rows": [
       [1, "x"],
       [2.5, "+3"]
     ]}
  ],
  "timings": {
    "t": {"count": 1, "total_us": 2, "mean_us": 2, "min_us": 2, "max_us": 2, "buckets": [[2, 1]]}
  },
  "counters": {
    "steps": 42
  },
  "gauges": {
    "temp": 1.5
  }
}
)";
    EXPECT_EQ(os.str(), golden);
}

TEST(Export, SimdDispatchEmittedOnlyWhenSet)
{
    obs::BenchArtifact artifact;
    artifact.manifest.experiment = "simd";
    std::ostringstream unset;
    obs::writeBenchArtifact(artifact, unset);
    EXPECT_EQ(unset.str().find("simd_dispatch"), std::string::npos);
    EXPECT_EQ(unset.str().find("cpu_model"), std::string::npos);

    artifact.manifest.simdDispatch = "avx512f";
    artifact.manifest.cpuModel = "Intel(R) Xeon(R) Processor";
    std::ostringstream set;
    obs::writeBenchArtifact(artifact, set);
    EXPECT_NE(set.str().find("    \"simd_dispatch\": \"avx512f\",\n"
                             "    \"cpu_model\": "
                             "\"Intel(R) Xeon(R) Processor\",\n"),
              std::string::npos);
}

TEST(Export, WriteRestoresStreamPrecision)
{
    obs::BenchArtifact artifact;
    artifact.manifest.experiment = "p";
    std::ostringstream os;
    os.precision(3);
    obs::writeBenchArtifact(artifact, os);
    EXPECT_EQ(os.precision(), 3);
}

TEST(Export, ArtifactFileNameIsCanonical)
{
    EXPECT_EQ(obs::benchArtifactFileName("fig7"), "BENCH_fig7.json");
}
