/**
 * @file
 * Thermal-solver bench: accuracy and speed of the grid's spectral
 * exponential integrator against the forward-Euler reference
 * (thermal/explicit_reference.hh, DESIGN.md §9).
 *
 * Accuracy phases (fig7-style power schedule, controller cadence):
 *   - per-step divergence from the reference at the checked-build
 *     shadow run's safety factor (ExplicitReference::kShadowDtSafety),
 *     re-syncing to its state every step — what the shadow run
 *     measures. The bench exits nonzero past 0.25 C;
 *   - per-step divergence from a 16x-refined reference whose
 *     truncation error is near zero — the documented 0.05 C bound on
 *     spectral error "vs exact" (the bench exits nonzero past it);
 *   - for both per-step rows, the largest ratio of a step's divergence
 *     to the reference's proven truncation bound for that step
 *     (ExplicitReference::truncationBound). The spectral step is exact
 *     up to round-off, so the bench exits nonzero when it exceeds 1;
 *   - free-running trajectory divergence (no re-sync), which is
 *     dominated by the reference's accumulated truncation.
 *
 * Timing phase: microseconds per telemetry step for each integrator,
 * step-only (the stage.thermal cost) and full cycle (power ingest +
 * step + temperature read), plus the resulting speedup columns in
 * BENCH_thermal_solver.json.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/table.hh"
#include "floorplan/skylake.hh"
#include "harness.hh"
#include "report.hh"
#include "thermal/explicit_reference.hh"
#include "thermal/spectral_solver.hh"
#include "thermal/thermal_grid.hh"

using namespace boreas;
using namespace boreas::bench;

namespace
{

/** The documented spectral-vs-exact bound CI enforces, Celsius. */
constexpr double kExactnessBound = 0.05;
/** Gate on per-step divergence at the shadow run's safety, Celsius. */
constexpr double kShadowDivergenceBound = 0.25;
/** Safety factor of the near-exact (16x-refined) reference. */
constexpr double kRefinedDtSafety = 0.025;

/** Deterministic fig7-style power schedule (changes every decision). */
std::vector<Watts>
schedulePower(Rng &rng, size_t units)
{
    std::vector<Watts> power(units);
    for (double &p : power)
        p = rng.uniform(0.0, 8.0);
    return power;
}

/** Per-step divergence of the spectral step from the reference. */
struct Divergence
{
    double maxErr = 0.0;   ///< max abs divergence, C
    double maxRatio = 0.0; ///< max over steps of divergence / bound
};

/**
 * Per-step spectral divergence from the reference at the given safety
 * factor, re-syncing the spectral state to the reference every step
 * (isolates one step's error from trajectory feedback), and its ratio
 * to the reference's proven truncation bound for each step.
 */
Divergence
perStepDivergence(double dt_safety, int steps)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
    SpectralThermalSolver solver(grid.spectralNetwork());
    ExplicitReference ref(grid.spectralNetwork(), dt_safety);

    Rng rng(kBenchSeed);
    std::vector<double> ssi, ssp;
    Divergence out;
    for (int step = 0; step < steps; ++step) {
        if (step % kStepsPerDecision == 0) {
            grid.setUnitPower(schedulePower(rng, fp.numUnits()));
            solver.setPower(grid.cellPower());
            ref.setPower(grid.cellPower());
        }
        solver.loadState(ref.silicon(), ref.spreader(), ref.sinkTemp());
        const double bound = ref.truncationBound(kTelemetryStep);
        solver.step(kTelemetryStep);
        ref.step(kTelemetryStep);
        solver.realizeSilicon(ssi);
        solver.realizeSpreader(ssp);
        const std::vector<Celsius> &ts = ref.silicon();
        const std::vector<Celsius> &tp = ref.spreader();
        double err = std::fabs(ref.sinkTemp() - solver.sinkTemp());
        for (size_t i = 0; i < ts.size(); ++i) {
            err = std::max(err, std::fabs(ts[i] - ssi[i]));
            err = std::max(err, std::fabs(tp[i] - ssp[i]));
        }
        out.maxErr = std::max(out.maxErr, err);
        out.maxRatio = std::max(out.maxRatio, err / bound);
    }
    return out;
}

/** Free-running max divergence between the grid and the reference. */
double
trajectoryDivergence(int steps)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
    ExplicitReference ref(grid.spectralNetwork(),
                          ExplicitReference::kShadowDtSafety);

    Rng rng(kBenchSeed);
    double max_err = 0.0;
    for (int step = 0; step < steps; ++step) {
        if (step % kStepsPerDecision == 0) {
            grid.setUnitPower(schedulePower(rng, fp.numUnits()));
            ref.setPower(grid.cellPower());
        }
        grid.step(kTelemetryStep);
        ref.step(kTelemetryStep);
        const std::vector<Celsius> &te = ref.silicon();
        const std::vector<Celsius> &ts = grid.siliconTemps();
        for (size_t i = 0; i < te.size(); ++i)
            max_err = std::max(max_err, std::fabs(te[i] - ts[i]));
    }
    return max_err;
}

struct TimingRow
{
    double stepUs = 0.0;  ///< step() only (the stage.thermal cost)
    double cycleUs = 0.0; ///< set power + step + read temperatures
};

/**
 * Time `steps` calls of `step()` alone, then `steps` full cycles
 * `cycle(i)` (set power map i % 2, step, return the hottest cell).
 */
template <typename Step, typename Cycle>
TimingRow
timeLoop(int steps, Step step, Cycle cycle)
{
    using clock = std::chrono::steady_clock;
    for (int i = 0; i < 16; ++i) // warm up caches and the step plan
        step();

    const clock::time_point t0 = clock::now();
    for (int i = 0; i < steps; ++i)
        step();
    const clock::time_point t1 = clock::now();

    double checksum = 0.0;
    const clock::time_point t2 = clock::now();
    for (int i = 0; i < steps; ++i)
        checksum += cycle(i);
    const clock::time_point t3 = clock::now();
    if (!std::isfinite(checksum))
        std::fprintf(stderr, "non-finite checksum\n");

    const auto us = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double, std::micro>(b - a).count();
    };
    TimingRow row;
    row.stepUs = us(t0, t1) / steps;
    row.cycleUs = us(t2, t3) / steps;
    return row;
}

/**
 * Both integrators on the default grid, driven by two alternating
 * power maps so the grid's setUnitPower never short-circuits on the
 * identical-input skip. The reference's cycle copies a precomputed
 * cell map; the grid's pays its own unit->cell ingest.
 */
std::pair<TimingRow, TimingRow>
timeIntegrators(int steps)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});

    Rng rng(kBenchSeed);
    const std::vector<Watts> pa = schedulePower(rng, fp.numUnits());
    const std::vector<Watts> pb = schedulePower(rng, fp.numUnits());
    grid.setUnitPower(pb);
    const std::vector<Watts> cell_b = grid.cellPower();
    grid.setUnitPower(pa);
    const std::vector<Watts> cell_a = grid.cellPower();

    ExplicitReference ref(grid.spectralNetwork(),
                          ExplicitReference::kShadowDtSafety);
    ref.setPower(cell_a);
    const TimingRow reference = timeLoop(
        steps, [&] { ref.step(kTelemetryStep); },
        [&](int i) {
            ref.setPower((i & 1) != 0 ? cell_b : cell_a);
            ref.step(kTelemetryStep);
            const std::vector<Celsius> &si = ref.silicon();
            return *std::max_element(si.begin(), si.end());
        });
    const TimingRow spectral = timeLoop(
        steps, [&] { grid.step(kTelemetryStep); },
        [&](int i) {
            grid.setUnitPower((i & 1) != 0 ? pb : pa);
            grid.step(kTelemetryStep);
            return grid.maxSiliconTemp();
        });
    return {reference, spectral};
}

} // namespace

int
main(int argc, char **argv)
{
    // The solver comparison drives a synthetic power schedule directly
    // into the grids; there is no workload dimension to override.
    requireNoWorkloadOverride(parseBenchArgs(argc, argv),
                              "thermal_solver");
    BenchReport report("thermal_solver");

    const Scale scale = benchScale();
    const int accuracy_steps = scale == Scale::Small ? 120
                               : scale == Scale::Paper ? 960
                                                       : 240;
    const int timing_steps = scale == Scale::Small ? 400 : 2000;
    report.config("accuracy_steps", double(accuracy_steps));
    report.config("timing_steps", double(timing_steps));
    report.config("exactness_bound_C", kExactnessBound);

    std::printf("=== thermal solver accuracy (max abs divergence, C) "
                "===\n");
    const Divergence production = perStepDivergence(
        ExplicitReference::kShadowDtSafety, accuracy_steps);
    const Divergence refined =
        perStepDivergence(kRefinedDtSafety, accuracy_steps);
    const double vs_production = production.maxErr;
    const double vs_refined = refined.maxErr;
    const double trajectory = trajectoryDivergence(accuracy_steps);
    const double max_ratio =
        std::max(production.maxRatio, refined.maxRatio);

    TextTable accuracy;
    accuracy.setHeader({"comparison", "max abs err C", "bound C",
                        "max err / proven bound", "pass"});
    accuracy.addRow(
        {"per-step vs production explicit",
         TextTable::num(vs_production, 4),
         TextTable::num(kShadowDivergenceBound, 2),
         TextTable::num(production.maxRatio, 3),
         vs_production <= kShadowDivergenceBound &&
                 production.maxRatio <= 1.0
             ? "yes"
             : "NO"});
    accuracy.addRow({"per-step vs 16x-refined explicit",
                     TextTable::num(vs_refined, 4),
                     TextTable::num(kExactnessBound, 2),
                     TextTable::num(refined.maxRatio, 3),
                     vs_refined <= kExactnessBound &&
                             refined.maxRatio <= 1.0
                         ? "yes"
                         : "NO"});
    accuracy.addRow({"free-running trajectory",
                     TextTable::num(trajectory, 4), "(unbounded)", "-",
                     "-"});
    accuracy.print(std::cout);
    report.addTable("accuracy", accuracy);
    report.comparison("spectral vs exact",
                      "<= 0.05 C",
                      TextTable::num(vs_refined, 4) + " C");

    std::printf("\n=== thermal solver timing (us per %g us telemetry "
                "step) ===\n", kTelemetryStep * 1e6);
    const auto [te, ts] = timeIntegrators(timing_steps);

    TextTable timing;
    timing.setHeader({"solver", "step us", "full cycle us",
                      "step speedup", "cycle speedup"});
    timing.addRow({"explicit", TextTable::num(te.stepUs, 2),
                   TextTable::num(te.cycleUs, 2), "1.0", "1.0"});
    timing.addRow({"spectral", TextTable::num(ts.stepUs, 2),
                   TextTable::num(ts.cycleUs, 2),
                   TextTable::num(te.stepUs / ts.stepUs, 1),
                   TextTable::num(te.cycleUs / ts.cycleUs, 1)});
    timing.print(std::cout);
    report.addTable("timing", timing);
    report.comparison("thermal step speedup", ">=10x target",
                      TextTable::num(te.stepUs / ts.stepUs, 1) + "x");

    if (vs_refined > kExactnessBound) {
        std::fprintf(stderr,
                     "FAIL: spectral error vs refined reference %.4f C "
                     "exceeds the documented %.2f C bound\n",
                     vs_refined, kExactnessBound);
        return 1;
    }
    if (vs_production > kShadowDivergenceBound) {
        std::fprintf(stderr,
                     "FAIL: per-step divergence %.4f C exceeds %.2f C\n",
                     vs_production, kShadowDivergenceBound);
        return 1;
    }
    if (max_ratio > 1.0) {
        std::fprintf(stderr,
                     "FAIL: a spectral step diverged from the reference "
                     "by %.3fx its proven truncation bound\n",
                     max_ratio);
        return 1;
    }
    return 0;
}
