/**
 * @file
 * BenchReport: the one-liner that turns a bench main into an artifact
 * producer. Constructing it switches the observability layer on
 * (metrics always; tracing when BOREAS_TRACE is set) and stamps the
 * run manifest; destruction — or an explicit write() — snapshots the
 * metrics and drops BENCH_<id>.json (schema "boreas-bench-v1", see
 * obs/export.hh) next to the bench's text tables, plus TRACE_<id>.json
 * when tracing was on.
 *
 * Typical shape of a bench main:
 *
 *   BenchReport report("fig7");
 *   ...
 *   report.comparison("ML05 avg freq gain", "+7.3%", measured);
 *   report.addTable("fig7", table);   // also printed as text
 *   // report destructor writes BENCH_fig7.json
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hh"
#include "obs/export.hh"

namespace boreas::bench
{

/**
 * The shared per-benchmark latency schema (micro_latency and
 * gbt_throughput both emit it): sample count plus mean/p50/p99 in
 * nanoseconds, one row per benchmark in a "latency" series.
 */
struct LatencySummary
{
    size_t samples = 0;
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
};

/** Summarize raw per-call (or per-repetition) latency samples, ns. */
LatencySummary summarizeLatency(const std::vector<double> &samples_ns);

/** Collects one bench run's artifact and writes it on destruction. */
class BenchReport
{
  public:
    /**
     * Start a report for BENCH_<id>.json. Enables the observability
     * layer, clears any prior metrics/trace state and fills the
     * manifest with the bench scale, thread count, default seed, SIMD
     * dispatch and host CPU model.
     */
    explicit BenchReport(std::string id);

    /** Writes the artifact if write() was not called explicitly. */
    ~BenchReport();

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** Record a free-form manifest config entry. */
    void config(const std::string &key, std::string value);
    void config(const std::string &key, double value);

    /** Override the manifest seed (defaults to kBenchSeed). */
    void seed(uint64_t value);

    /** Record the pipeline runHash fingerprint of the headline run. */
    void runHash(uint64_t value);

    /** Record the workload-source spec string the bench ran. */
    void workloadSource(const std::string &spec_string);

    /** Record the fleet size of a src/fleet experiment. */
    void fleetDies(int dies);

    /** Record the boreas-trace-v1 checksum recorded/replayed. */
    void traceChecksum(uint64_t value);

    /** Add one paper-vs-measured headline row. */
    void comparison(std::string quantity, std::string paper,
                    std::string measured);

    /** Add a printed TextTable as a named series. */
    void addTable(const std::string &name, const TextTable &table);

    /** Add a raw series. */
    void addSeries(obs::BenchSeries series);

    /**
     * Accumulate one benchmark's latency summary. All rows land in a
     * single "latency" series with columns {benchmark, samples,
     * mean_ns, p50_ns, p99_ns}, emitted at write().
     */
    void latency(const std::string &benchmark,
                 const LatencySummary &summary);

    /**
     * Snapshot metrics, stamp the wall time and write BENCH_<id>.json
     * (and TRACE_<id>.json when tracing). Returns false if a file
     * could not be written. Idempotent; the destructor skips writing
     * after an explicit call.
     */
    bool write();

  private:
    std::string id_;
    obs::BenchArtifact artifact_;
    obs::BenchSeries latency_; ///< accumulated latency rows
    std::chrono::steady_clock::time_point t0_;
    bool written_ = false;
    bool tracing_ = false;
};

} // namespace boreas::bench
