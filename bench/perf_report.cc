/**
 * @file
 * Timing report for the parallel simulation engine: measures the serial
 * hot loops (thermal step) and the thread-pool fan-outs (sweep runs,
 * GBT training, dataset generation) at one thread vs. the host default,
 * and writes the numbers to BENCH_parallel.json in the working
 * directory.
 *
 * Thread counts come from ThreadPool::defaultThreads() (BOREAS_THREADS
 * or the hardware concurrency); on a single-core host the "threaded"
 * columns legitimately equal the serial ones. Registered under the
 * `perf` ctest label so `ctest -L perf` smoke-runs it.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "boreas/dataset_builder.hh"
#include "common/logging.hh"
#include "boreas/pipeline.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "harness.hh"
#include "ml/gbt.hh"
#include "obs/metrics.hh"
#include "report.hh"
#include "thermal/thermal_grid.hh"
#include "workload/spec2006.hh"

using namespace boreas;
using namespace boreas::bench;
using Clock = std::chrono::steady_clock;

namespace
{

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** 32x32-grid pipeline so the report runs in seconds. */
PipelineConfig
reportConfig()
{
    PipelineConfig cfg;
    cfg.thermal.nx = 32;
    cfg.thermal.ny = 32;
    return cfg;
}

/** Time one full pass of a small multi-run sweep on the global pool. */
double
timeSweep()
{
    const SourceSet set = wrapSpecs(
        {&findWorkload("bzip2"), &findWorkload("gamess"),
         &findWorkload("povray"), &findWorkload("mcf")});
    std::vector<RunTask> tasks;
    for (const WorkloadSource *source : set.sources) {
        tasks.push_back({source,
                         [] {
                             return std::make_unique<
                                 FixedFrequencyController>(
                                 "fixed", kBaselineFrequency);
                         }});
    }
    const auto t0 = Clock::now();
    const std::vector<RunResult> runs = runAll(reportConfig(), tasks);
    const auto t1 = Clock::now();
    boreas_assert(runs.size() == tasks.size(), "sweep dropped runs");
    return seconds(t0, t1);
}

/** Time dataset generation (the Trainer's fan-out) on the global pool. */
double
timeDatasetBuild(BuiltData &out)
{
    DatasetConfig cfg;
    cfg.frequencies = {3.75, 4.25, 4.75};
    cfg.walkSegments = 1;
    cfg.traceSteps = 96;
    SimulationPipeline pipeline(reportConfig());
    const SourceSet set = wrapSpecs(
        {&findWorkload("povray"), &findWorkload("gromacs"),
         &findWorkload("mcf")});
    const auto t0 = Clock::now();
    out = buildTrainingData(pipeline, set.sources, cfg);
    const auto t1 = Clock::now();
    return seconds(t0, t1);
}

/** The timers of GBTRegressor::train (the gbt.flat_* ones time serving). */
constexpr std::array<std::string_view, 4> kTrainTimers = {
    "gbt.bin", "gbt.histogram", "gbt.subtract", "gbt.split"};

/** What the training timers have recorded. */
struct GbtPhases
{
    std::map<std::string, double> seconds; ///< per training timer

    double total() const
    {
        double sum = 0.0;
        for (const auto &[name, s] : seconds)
            sum += s;
        return sum;
    }
};

GbtPhases
gbtPhases()
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    GbtPhases p;
    for (const auto &[name, h] : snap.histograms) {
        if (std::find(kTrainTimers.begin(), kTrainTimers.end(), name) !=
            kTrainTimers.end())
            p.seconds[name] = h.sum * 1e-6;
    }
    return p;
}

/** Time one GBT fit (block-parallel histograms) on the global pool. */
double
timeTrain(const Dataset &data)
{
    GBTParams params;
    params.nEstimators = 60;
    GBTRegressor model;
    const auto t0 = Clock::now();
    model.train(data, params);
    const auto t1 = Clock::now();
    boreas_assert(model.trained(), "training produced no trees");
    return seconds(t0, t1);
}

} // namespace

int
main(int argc, char **argv)
{
    // The timing fan-outs use fixed micro stimuli; there is no workload
    // dimension to override.
    requireNoWorkloadOverride(parseBenchArgs(argc, argv), "perf_report");
    BenchReport report("parallel");
    const int threads = ThreadPool::defaultThreads();

    // --- Serial stencil throughput (unaffected by the pool). ---
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
    std::vector<Watts> power(fp.numUnits(), 0.5);
    grid.setUnitPower(power);
    constexpr int kWarmup = 20, kSteps = 200;
    for (int i = 0; i < kWarmup; ++i)
        grid.step(kTelemetryStep);
    const auto s0 = Clock::now();
    for (int i = 0; i < kSteps; ++i)
        grid.step(kTelemetryStep);
    const auto s1 = Clock::now();
    const double step_us = seconds(s0, s1) / kSteps * 1e6;

    // --- Pool fan-outs: serial (1 thread) vs. host default. ---
    ThreadPool::resetGlobal(1);
    const double sweep_serial = timeSweep();
    BuiltData data_serial;
    const double build_serial = timeDatasetBuild(data_serial);
    const GbtPhases before = gbtPhases();
    const double train_serial = timeTrain(data_serial.severity);
    // The serial fit's phases, and the share of its wall time the
    // gbt.* timers cover.
    GbtPhases fit = gbtPhases();
    for (auto &[name, s] : fit.seconds) {
        const auto it = before.seconds.find(name);
        if (it != before.seconds.end())
            s -= it->second;
    }
    const double train_timed_share = fit.total() / train_serial;

    ThreadPool::resetGlobal(threads);
    const double sweep_par = timeSweep();
    BuiltData data_par;
    const double build_par = timeDatasetBuild(data_par);
    const double train_par = timeTrain(data_par.severity);

    const double sweep_speedup = sweep_serial / sweep_par;
    const double build_speedup = build_serial / build_par;
    const double train_speedup = train_serial / train_par;

    std::printf("=== parallel engine timing report ===\n");
    std::printf("threads (BOREAS_THREADS/default): %d\n", threads);
    std::printf("thermal step (64x64, 80us):       %.1f us\n", step_us);
    std::printf("sweep  4 runs:   %.3fs serial, %.3fs threaded (%.2fx)\n",
                sweep_serial, sweep_par, sweep_speedup);
    std::printf("dataset build:   %.3fs serial, %.3fs threaded (%.2fx)\n",
                build_serial, build_par, build_speedup);
    std::printf("gbt train (60):  %.3fs serial, %.3fs threaded (%.2fx)\n",
                train_serial, train_par, train_speedup);
    std::printf("gbt train timed: %.1f%% of serial wall in gbt.* timers\n",
                100.0 * train_timed_share);
    std::printf("gbt train phases:");
    for (const auto &[name, s] : fit.seconds)
        std::printf(" %s %.3fs", name.c_str() + 4, s);
    std::printf("\n");

    report.config("threads", static_cast<double>(threads));
    report.config("thermal_step_us", step_us);
    TextTable timing;
    timing.setHeader({"fan-out", "serial s", "threaded s", "speedup"});
    timing.addRow({"sweep 4 runs", TextTable::num(sweep_serial, 3),
                   TextTable::num(sweep_par, 3),
                   TextTable::num(sweep_speedup, 2)});
    timing.addRow({"dataset build", TextTable::num(build_serial, 3),
                   TextTable::num(build_par, 3),
                   TextTable::num(build_speedup, 2)});
    timing.addRow({"gbt train 60", TextTable::num(train_serial, 3),
                   TextTable::num(train_par, 3),
                   TextTable::num(train_speedup, 2)});
    report.addTable("parallel_speedups", timing);
    report.comparison("sweep speedup at " + std::to_string(threads) +
                          " threads",
                      ">1 on multicore hosts",
                      TextTable::num(sweep_speedup, 2));
    report.comparison("gbt train speedup", ">1 on multicore hosts",
                      TextTable::num(train_speedup, 2));
    report.comparison("gbt train serial wall under gbt.* timers",
                      ">= 0.90",
                      TextTable::num(train_timed_share, 3));
    return 0;
}
