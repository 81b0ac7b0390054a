/**
 * @file
 * Fleet-scale throughput + budget experiment (DESIGN.md §13): a
 * heterogeneous fleet of dies — mixed workload sources, per-die
 * ambients and seeds, per-die ML05 Boreas controllers — simulated by
 * src/fleet under the shared thread pool, reporting dies/sec,
 * die-steps/sec and the per-stage time split to BENCH_fleet.json.
 *
 * Checks enforced (nonzero exit on violation):
 *   - the fleet rollup — every per-die runHash and the combined
 *     rollupHash — is bit-identical at 1 and 8 threads;
 *   - the deliberately-broken die of the fault-injection fleet is
 *     reported per-die while every other die still runs.
 *
 * The budget experiment re-runs the fleet with a global power budget
 * at 85% of the unconstrained aggregate and reports the utilization
 * and the frequency the FleetController traded away for it.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "fleet/fleet.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;
using namespace boreas::fleet;
using Clock = std::chrono::steady_clock;

namespace
{

/** Heterogeneous per-die workload catalog (die i runs entry i mod 8):
 *  SPEC programs, a co-scheduled NAS mix, and adversarial hotspots. */
const char *const kDieCatalog[] = {
    "bzip2",
    "gromacs",
    "mix:bt.B+is.D+ep.B+cg.B@stagger=0.8e-3",
    "adversarial:corehop",
    "mcf",
    "synthetic:nas/cg.B",
    "povray",
    "adversarial:powervirus",
};
constexpr int kCatalogSize =
    static_cast<int>(sizeof(kDieCatalog) / sizeof(kDieCatalog[0]));

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::string
hex64(uint64_t v)
{
    return strfmt("%016llx", static_cast<unsigned long long>(v));
}

/** The fleet for a scale: dies cycle through the catalog with rack-
 *  position ambients (40-50 C) and per-die seeds. */
FleetConfig
fleetConfigFor(Scale scale, Watts budget)
{
    FleetConfig cfg;
    int dies = 8;
    cfg.epochs = 3;
    cfg.epochSteps = 3 * kStepsPerDecision;
    if (scale == Scale::Full) {
        dies = 32;
        cfg.epochs = 6;
    } else if (scale == Scale::Paper) {
        dies = 128;
        cfg.epochs = 10;
        cfg.epochSteps = 5 * kStepsPerDecision;
    }
    for (int i = 0; i < dies; ++i) {
        FleetDieSpec die;
        die.workload = kDieCatalog[i % kCatalogSize];
        die.seed = kBenchSeed + static_cast<uint64_t>(i);
        die.ambient = 40.0 + 2.5 * static_cast<double>(i % 5);
        cfg.dies.push_back(die);
    }
    cfg.controller.globalBudget = budget;
    return cfg;
}

DieControllerFactory
ml05Factory(const ExperimentContext &ctx)
{
    return [&ctx](int) { return ctx.mlController(0.05); };
}

/** Sum of live dies' mean power — the unconstrained operating point
 *  the budget experiment cuts from. */
Watts
aggregatePower(const FleetRollup &rollup)
{
    Watts total = 0.0;
    for (const FleetDieResult &die : rollup.perDie) {
        if (die.ok)
            total += die.meanPower;
    }
    return total;
}

/** Bit-compare two rollups; prints the first divergence. */
bool
rollupsIdentical(const FleetRollup &a, const FleetRollup &b)
{
    if (a.rollupHash != b.rollupHash) {
        std::fprintf(stderr,
                     "FAIL: rollupHash %s (1 thread) != %s (8 threads)\n",
                     hex64(a.rollupHash).c_str(),
                     hex64(b.rollupHash).c_str());
    }
    bool same = a.rollupHash == b.rollupHash;
    for (size_t i = 0; i < a.perDie.size() && i < b.perDie.size(); ++i) {
        if (a.perDie[i].runHash != b.perDie[i].runHash) {
            std::fprintf(stderr,
                         "FAIL: die %zu runHash %s != %s\n", i,
                         hex64(a.perDie[i].runHash).c_str(),
                         hex64(b.perDie[i].runHash).c_str());
            same = false;
        }
    }
    return same;
}

/** Restores the global pool on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard()
    {
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

} // namespace

int
main(int argc, char **argv)
{
    // The fleet runs its own heterogeneous catalog; there is no single
    // workload dimension to override.
    requireNoWorkloadOverride(parseBenchArgs(argc, argv),
                              "fleet_throughput");
    const Scale scale = benchScale();
    BenchReport report("fleet");

    std::fprintf(stderr, "building experiment context (training)...\n");
    const auto ctx = buildExperimentContext();
    const DieControllerFactory factory = ml05Factory(*ctx);

    // --- Gate 1: rollup bit-identical at 1 vs 8 threads. ---
    FleetConfig cfg = fleetConfigFor(scale, 0.0);
    bool pass = true;
    {
        GlobalPoolGuard guard;
        ThreadPool::resetGlobal(1);
        const FleetRollup serial = FleetSimulator(cfg, factory).run();
        ThreadPool::resetGlobal(8);
        const FleetRollup threaded = FleetSimulator(cfg, factory).run();
        pass = rollupsIdentical(serial, threaded);
    }
    report.comparison("rollup 1-vs-8-thread", "bit-identical",
                      pass ? "bit-identical" : "DIVERGED");

    // --- Gate 2: a broken die is contained, the fleet survives. ---
    {
        FleetConfig faulty = cfg;
        faulty.epochs = 1;
        faulty.dies[1].workload = "mix:mcf+nosuchprogram";
        const FleetRollup r = FleetSimulator(faulty, factory).run();
        const bool contained =
            r.failedDies == 1 && !r.perDie[1].ok &&
            !r.perDie[1].error.empty() && r.perDie[0].ok &&
            r.totalSteps > 0;
        if (!contained) {
            std::fprintf(stderr,
                         "FAIL: fault injection not contained "
                         "(failedDies=%d)\n", r.failedDies);
            pass = false;
        }
        report.comparison("fault containment", "1 die fails, rest run",
                          contained ? "contained" : "NOT CONTAINED");
    }

    // --- Throughput: unconstrained fleet on the default pool. ---
    obs::MetricsRegistry::global().reset();
    const auto t0 = Clock::now();
    const FleetRollup unlimited = FleetSimulator(cfg, factory).run();
    const auto t1 = Clock::now();
    const double wall = seconds(t0, t1);
    const double dies_per_sec =
        wall > 0.0 ? static_cast<double>(unlimited.dies) / wall : 0.0;
    const double die_steps_per_sec =
        wall > 0.0 ? static_cast<double>(unlimited.totalSteps) / wall
                   : 0.0;

    // Per-stage split of the timed run (pipeline stage timers plus
    // the fleet barrier), from the sharded metrics histograms.
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    double stage_total_us = 0.0;
    for (const auto &[name, hist] : snap.histograms) {
        if (name.rfind("stage.", 0) == 0)
            stage_total_us += hist.sum;
    }
    TextTable stages;
    stages.setHeader({"stage", "calls", "total s", "share %"});
    for (const auto &[name, hist] : snap.histograms) {
        if (name.rfind("stage.", 0) != 0)
            continue;
        stages.addRow({name, std::to_string(hist.count),
                       TextTable::num(hist.sum / 1e6, 3),
                       TextTable::num(stage_total_us > 0.0
                                          ? 100.0 * hist.sum /
                                                stage_total_us
                                          : 0.0,
                                      1)});
    }
    report.addTable("stage_split", stages);

    // --- Budget experiment: cap the fleet at 85% of its draw. ---
    const Watts aggregate = aggregatePower(unlimited);
    const Watts budget = 0.85 * aggregate;
    FleetConfig capped_cfg = fleetConfigFor(scale, budget);
    const FleetRollup capped =
        FleetSimulator(capped_cfg, factory).run();
    const Watts capped_aggregate = aggregatePower(capped);
    const double utilization =
        budget > 0.0 ? capped_aggregate / budget : 0.0;

    // --- Report. ---
    TextTable dies;
    dies.setHeader({"die", "workload", "ambient", "steps", "freq GHz",
                    "power W", "incur", "cap", "runHash"});
    for (const FleetDieResult &d : unlimited.perDie) {
        if (!d.ok) {
            dies.addRow({std::to_string(d.die), d.workload, "-", "-",
                         "-", "-", "-", "-", "FAILED: " + d.error});
            continue;
        }
        dies.addRow({std::to_string(d.die), d.workload,
                     TextTable::num(cfg.dies[d.die].ambient, 1),
                     std::to_string(d.steps),
                     TextTable::num(d.meanFrequency, 3),
                     TextTable::num(d.meanPower, 2),
                     std::to_string(d.incursionSteps),
                     TextTable::num(d.finalCap, 2), hex64(d.runHash)});
    }
    report.addTable("fleet_dies", dies);

    TextTable epochs;
    epochs.setHeader({"epoch", "unlimited W", "capped W"});
    for (size_t e = 0; e < unlimited.epochPower.size(); ++e) {
        epochs.addRow(
            {std::to_string(e),
             TextTable::num(unlimited.epochPower[e], 2),
             e < capped.epochPower.size()
                 ? TextTable::num(capped.epochPower[e], 2)
                 : "-"});
    }
    report.addTable("epoch_power", epochs);

    std::printf("=== fleet throughput (%d dies, %d epochs x %d steps, "
                "%d threads) ===\n",
                unlimited.dies, cfg.epochs, cfg.epochSteps,
                ThreadPool::defaultThreads());
    std::printf("wall: %.3fs  dies/sec: %.2f  die-steps/sec: %.0f\n",
                wall, dies_per_sec, die_steps_per_sec);
    std::printf("aggregate incursion rate: %.4f  mean freq: %.3f GHz\n",
                unlimited.aggregateIncursionRate,
                unlimited.meanFrequency);
    std::printf("budget %.1f W (85%% of %.1f W): capped draw %.1f W "
                "(%.1f%% util), mean freq %.3f -> %.3f GHz\n",
                budget, aggregate, capped_aggregate,
                100.0 * utilization, unlimited.meanFrequency,
                capped.meanFrequency);

    report.fleetDies(unlimited.dies);
    report.runHash(unlimited.rollupHash);
    report.config("dies", static_cast<double>(unlimited.dies));
    report.config("epochs", static_cast<double>(cfg.epochs));
    report.config("epoch_steps", static_cast<double>(cfg.epochSteps));
    report.config("threads",
                  static_cast<double>(ThreadPool::defaultThreads()));
    report.config("wall_s", wall);
    report.config("dies_per_sec", dies_per_sec);
    report.config("die_steps_per_sec", die_steps_per_sec);
    report.config("aggregate_incursion_rate",
                  unlimited.aggregateIncursionRate);
    report.config("budget_w", budget);
    report.config("budget_utilization", utilization);
    report.comparison("dies/sec", "scales with threads",
                      TextTable::num(dies_per_sec, 2));
    report.comparison("aggregate incursion rate",
                      "driven by the adversarial dies",
                      TextTable::num(unlimited.aggregateIncursionRate,
                                     4));
    report.comparison("budget utilization", "<= 100%",
                      TextTable::num(100.0 * utilization, 1) + "%");
    report.comparison(
        "mean freq under 85% budget",
        "below unconstrained",
        TextTable::num(capped.meanFrequency, 3) + " vs " +
            TextTable::num(unlimited.meanFrequency, 3) + " GHz");

    if (!pass) {
        std::fprintf(stderr, "fleet_throughput: FAILED\n");
        return 1;
    }
    return 0;
}
