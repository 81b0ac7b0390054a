/**
 * @file
 * Serving-path throughput and latency for the flat GBT engine
 * (ROADMAP item 3, DESIGN.md §12): trains the paper-sized 223-tree
 * model, then measures predictions/sec of FlatGBT::predictBatch
 * against the pointer-chasing GBTRegressor::predict baseline across
 * batch sizes, plus p50/p99 per-prediction latency through the same
 * LatencySummary schema micro_latency emits.
 *
 * Two exit-code gates:
 *   - equality (always on): every flat prediction must be bit-identical
 *     to the reference walk at every measured batch size;
 *   - speedup (conditioned): >= 5x predictions/sec at batch 4096.
 *     Armed when the host has >= 4 hardware threads and the build is
 *     unsanitized — sanitizer instrumentation and single-core boxes
 *     distort relative timing, not correctness. BOREAS_PERF_GATE=strict
 *     forces it on; BOREAS_PERF_GATE=off forces it off.
 *
 * Leaves BENCH_gbt_throughput.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "boreas/trainer.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness.hh"
#include "ml/gbt_flat.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

namespace
{

/** Rows of the throughput working set (the ISSUE's headline batch). */
constexpr size_t kRows = 4096;

/** Batch sizes swept for the throughput table. */
constexpr size_t kBatchSizes[] = {1, 64, 1024, 4096};

/** Required flat-vs-reference throughput ratio at batch kRows. */
constexpr double kRequiredSpeedup = 5.0;

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Is the speedup gate armed? (The equality gate always is.) */
bool
speedupGateArmed()
{
    if (const char *env = std::getenv("BOREAS_PERF_GATE")) {
        const std::string mode(env);
        boreas_assert(mode == "strict" || mode == "off",
                      "BOREAS_PERF_GATE must be strict|off, got '%s'",
                      mode.c_str());
        return mode == "strict";
    }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false; // instrumented build: timing is not representative
#else
    return std::thread::hardware_concurrency() >= 4;
#endif
}

/** Best-of-`reps` wall time of fn(), in seconds. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double t0 = nowNs();
        fn();
        const double s = (nowNs() - t0) * 1e-9;
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions options = parseBenchArgs(argc, argv);
    requireNoWorkloadOverride(options, "gbt_throughput");

    BenchReport report("gbt_throughput");

    SimulationPipeline pipeline;
    const TrainedBoreas trained = trainServingRecipe(pipeline);
    const GBTRegressor &model = trained.model;
    const FlatGBT flat(model);

    report.config("trees", static_cast<double>(model.numTrees()));
    report.config("features",
                  static_cast<double>(model.numFeatures()));
    report.config("flat_bytes", static_cast<double>(flat.flatBytes()));
    report.config("rows", static_cast<double>(kRows));

    // Working set: the deployed-feature training rows tiled to kRows,
    // packed row-major so batches are pointer arithmetic.
    const Dataset &data = trained.trainData;
    boreas_assert(data.numRows() > 0, "empty training dataset");
    const size_t nf = model.numFeatures();
    std::vector<double> rows(kRows * nf);
    for (size_t r = 0; r < kRows; ++r) {
        const double *src = data.row(r % data.numRows());
        std::memcpy(rows.data() + r * nf, src, nf * sizeof(double));
    }

    // Reference predictions once; the flat engine must reproduce them
    // bit for bit at every batch size.
    std::vector<double> ref(kRows);
    for (size_t r = 0; r < kRows; ++r)
        ref[r] = model.predict(rows.data() + r * nf);

    bool equal = true;
    TextTable table;
    table.setHeader({"batch", "flat preds/s", "reference preds/s",
                     "speedup"});
    double headline_speedup = 0.0;
    std::vector<double> out(kRows);
    for (const size_t batch : kBatchSizes) {
        // Equality sweep first: cover every row via back-to-back
        // batches of this size (bit-identical or the bench fails).
        std::fill(out.begin(), out.end(), 0.0);
        for (size_t lo = 0; lo < kRows; lo += batch) {
            const size_t n = std::min(batch, kRows - lo);
            flat.predictBatch(rows.data() + lo * nf, n,
                              out.data() + lo);
        }
        for (size_t r = 0; r < kRows; ++r) {
            if (std::memcmp(&out[r], &ref[r], sizeof(double)) != 0) {
                boreas_warn("flat[%zu] = %.17g != reference %.17g "
                            "(batch %zu)", r, out[r], ref[r], batch);
                equal = false;
            }
        }

        // Throughput: constant total work per measurement so small
        // batches are timed over many calls, not one noisy call.
        const int reps = 5;
        const double flat_s = bestSeconds(reps, [&] {
            for (size_t lo = 0; lo < kRows; lo += batch) {
                const size_t n = std::min(batch, kRows - lo);
                flat.predictBatch(rows.data() + lo * nf, n,
                                  out.data() + lo);
            }
        });
        const double ref_s = bestSeconds(reps, [&] {
            for (size_t r = 0; r < kRows; ++r) {
                out[r] = model.predict(rows.data() + r * nf);
            }
        });
        const double flat_rate = static_cast<double>(kRows) / flat_s;
        const double ref_rate = static_cast<double>(kRows) / ref_s;
        const double speedup = flat_rate / ref_rate;
        if (batch == kRows)
            headline_speedup = speedup;
        table.addRow({TextTable::num(static_cast<double>(batch), 0),
                      TextTable::num(flat_rate, 0),
                      TextTable::num(ref_rate, 0),
                      TextTable::num(speedup, 2)});
    }
    std::printf("=== GBT serving throughput (%zu trees) ===\n",
                model.numTrees());
    table.print(std::cout);
    report.addTable("throughput", table);

    // Per-prediction serving latency, one row at a time (the
    // controller's decision path): mean/p50/p99 over individual calls,
    // same schema as BENCH_micro_latency's latency series.
    constexpr size_t kLatencyCalls = 2000;
    std::vector<double> flat_ns(kLatencyCalls), ref_ns(kLatencyCalls);
    double sink = 0.0;
    for (size_t i = 0; i < kLatencyCalls; ++i) {
        const double *x = rows.data() + (i % kRows) * nf;
        const double t0 = nowNs();
        sink += flat.predictOne(x);
        flat_ns[i] = nowNs() - t0;
        const double t1 = nowNs();
        sink += model.predict(x);
        ref_ns[i] = nowNs() - t1;
    }
    boreas_assert(sink == sink, "latency probe produced NaN");
    const LatencySummary flat_lat = summarizeLatency(flat_ns);
    const LatencySummary ref_lat = summarizeLatency(ref_ns);
    report.latency("flat_predict_one", flat_lat);
    report.latency("reference_predict_one", ref_lat);

    TextTable lat_table;
    lat_table.setHeader(
        {"path", "mean ns", "p50 ns", "p99 ns"});
    lat_table.addRow({"flat", TextTable::num(flat_lat.meanNs, 1),
                      TextTable::num(flat_lat.p50Ns, 1),
                      TextTable::num(flat_lat.p99Ns, 1)});
    lat_table.addRow({"reference", TextTable::num(ref_lat.meanNs, 1),
                      TextTable::num(ref_lat.p50Ns, 1),
                      TextTable::num(ref_lat.p99Ns, 1)});
    std::printf("=== per-prediction latency ===\n");
    lat_table.print(std::cout);
    report.addTable("latency_single", lat_table);

    report.comparison("flat == reference (bit-identical)", "yes",
                      equal ? "yes" : "NO");
    report.comparison("speedup at batch 4096", ">= 5x",
                      TextTable::num(headline_speedup, 2) + "x");

    if (!equal) {
        boreas_warn("FAIL: flat engine diverged from the reference");
        return 1;
    }
    if (speedupGateArmed() && headline_speedup < kRequiredSpeedup) {
        boreas_warn("FAIL: speedup %.2fx at batch %zu is under the "
                    "required %.1fx", headline_speedup, kRows,
                    kRequiredSpeedup);
        return 1;
    }
    if (!speedupGateArmed()) {
        boreas_inform("speedup gate disarmed (sanitized build, < 4 "
                      "hardware threads, or BOREAS_PERF_GATE=off); "
                      "equality gate passed");
    }
    return 0;
}
