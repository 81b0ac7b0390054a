/** @file Cross-module property tests: invariants that must hold across
 *  parameter sweeps rather than at hand-picked points. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "boreas/dataset_builder.hh"
#include "common/rng.hh"
#include "hotspot/severity.hh"
#include "ml/gbt.hh"
#include "power/vf_table.hh"
#include "test_util.hh"
#include "thermal/explicit_reference.hh"
#include "thermal/spectral_solver.hh"
#include "workload/spec2006.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;

// ---------------------------------------------------------------------
// Severity metric properties.
// ---------------------------------------------------------------------

class SeverityContour : public ::testing::TestWithParam<double>
{
};

TEST_P(SeverityContour, CriticalCurveIsTheUnitContour)
{
    // By construction, severity(T_crit(M), M) == 1 for every MLTD —
    // the critical-temperature curve IS the severity-1.0 contour.
    const double mltd = GetParam();
    SeverityModel model;
    const Celsius t_crit = model.criticalTemp(mltd);
    EXPECT_NEAR(model.severity(t_crit, mltd), 1.0, 1e-12);
    // Just below/above the contour falls on the right side.
    EXPECT_LT(model.severity(t_crit - 1.0, mltd), 1.0);
    EXPECT_GT(model.severity(t_crit + 1.0, mltd), 1.0);
}

INSTANTIATE_TEST_SUITE_P(MltdSweep, SeverityContour,
                         ::testing::Values(0.0, 5.0, 12.5, 20.0, 27.0,
                                           35.0, 40.0, 55.0));

TEST(SeverityProperties, MltdInvariantToUniformShift)
{
    // MLTD is a difference field: adding a constant to every cell
    // leaves it unchanged.
    SeverityModel model;
    Rng rng(3);
    const int nx = 12, ny = 12;
    std::vector<Celsius> temps(nx * ny);
    for (auto &t : temps)
        t = rng.uniform(50.0, 90.0);
    std::vector<Celsius> shifted = temps;
    for (auto &t : shifted)
        t += 7.5;
    const auto a = model.mltdField(temps, nx, ny, 0.5e-3);
    const auto b = model.mltdField(shifted, nx, ny, 0.5e-3);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-9);
}

TEST(SeverityProperties, MltdNonNegativeAndBoundedByRange)
{
    SeverityModel model;
    Rng rng(5);
    const int nx = 16, ny = 16;
    std::vector<Celsius> temps(nx * ny);
    Celsius lo = 1e9, hi = -1e9;
    for (auto &t : temps) {
        t = rng.uniform(45.0, 110.0);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
    }
    for (Celsius m : model.mltdField(temps, nx, ny, 0.5e-3)) {
        EXPECT_GE(m, 0.0);
        EXPECT_LE(m, hi - lo + 1e-9);
    }
}

TEST(SeverityProperties, WiderRadiusNeverDecreasesMltd)
{
    // A larger neighborhood can only expose colder cells.
    Rng rng(7);
    const int nx = 16, ny = 16;
    std::vector<Celsius> temps(nx * ny);
    for (auto &t : temps)
        t = rng.uniform(50.0, 100.0);
    SeverityParams narrow, wide;
    narrow.mltdRadius = 0.5e-3;
    wide.mltdRadius = 2.0e-3;
    const auto a =
        SeverityModel(narrow).mltdField(temps, nx, ny, 0.5e-3);
    const auto b = SeverityModel(wide).mltdField(temps, nx, ny, 0.5e-3);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LE(a[i], b[i] + 1e-9);
}

// ---------------------------------------------------------------------
// VF table properties.
// ---------------------------------------------------------------------

class VfInterpolation : public ::testing::TestWithParam<int>
{
};

TEST_P(VfInterpolation, MidpointsAreAnchorAverages)
{
    // Each off-anchor grid point lies halfway between two anchors, so
    // its voltage is their average (piecewise-linear interpolation).
    VFTable vf;
    const auto &anchors = VFTable::anchors();
    const size_t k = static_cast<size_t>(GetParam());
    const GHz mid = 0.5 * (anchors[k].first + anchors[k + 1].first);
    EXPECT_NEAR(vf.voltage(mid),
                0.5 * (anchors[k].second + anchors[k + 1].second),
                1e-12);
}

INSTANTIATE_TEST_SUITE_P(AnchorGaps, VfInterpolation,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(VfProperties, StepUpThenDownIsIdentityInTheInterior)
{
    VFTable vf;
    for (int i = 1; i + 1 < vf.numPoints(); ++i) {
        const GHz f = vf.frequency(i);
        EXPECT_DOUBLE_EQ(vf.stepDown(vf.stepUp(f)), f);
        EXPECT_DOUBLE_EQ(vf.stepUp(vf.stepDown(f)), f);
    }
}

// ---------------------------------------------------------------------
// Thermal solver properties.
// ---------------------------------------------------------------------

TEST(ThermalProperties, SteadyStateIsAFixedPointOfTheTransient)
{
    // After solveSteadyState, integrating further must not move the
    // solution (the two code paths discretize the same network).
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    params.nx = 16;
    params.ny = 16;
    params.sinkCapacitance = 0.05; // let the sink participate
    ThermalGrid grid(fp, params);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[fp.findUnit(UnitKind::IntALU, 0)] = 4.0;
    power[fp.findUnit(UnitKind::L3, -1)] = 2.0;
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const std::vector<Celsius> before = grid.siliconTemps();
    grid.step(2e-3);
    const std::vector<Celsius> &after = grid.siliconTemps();
    for (size_t i = 0; i < before.size(); i += 5)
        EXPECT_NEAR(before[i], after[i], 0.02);
}

/**
 * The closed-form steady state of a fixed power map, on the grid the
 * parameter names: 64x64 runs the fast power-of-two transform, 24x24
 * the dense-DCT fallback.
 */
class SteadyStateFixedPoint : public ::testing::TestWithParam<int>
{
  protected:
    SteadyStateFixedPoint()
    {
        params.nx = GetParam();
        params.ny = GetParam();
        grid = std::make_unique<ThermalGrid>(fp, params);
        std::vector<Watts> power(fp.numUnits(), 0.5);
        power[fp.findUnit(UnitKind::IntALU, 0)] = 4.0;
        power[fp.findUnit(UnitKind::FPU, 1)] = 3.0;
        grid->setUnitPower(power);
    }

    /** Largest change of any node between two states. */
    static double
    maxMove(const std::vector<Celsius> &si, const std::vector<Celsius> &sp,
            Celsius sink, const std::vector<Celsius> &si_after,
            const std::vector<Celsius> &sp_after, Celsius sink_after)
    {
        double max_move = std::fabs(sink_after - sink);
        for (size_t i = 0; i < si.size(); ++i) {
            max_move = std::max(max_move, std::fabs(si_after[i] - si[i]));
            max_move = std::max(max_move, std::fabs(sp_after[i] - sp[i]));
        }
        return max_move;
    }

    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    std::unique_ptr<ThermalGrid> grid;
};

TEST_P(SteadyStateFixedPoint, OneExplicitStepMovesNoNode)
{
    // The closed-form solve is exact, so one 80 us step of the
    // forward-Euler reference from it moves no node beyond roundoff.
    grid->solveSteadyState();
    const std::vector<Celsius> si = grid->siliconTemps();
    const std::vector<Celsius> sp = grid->spreaderTemps();
    const Celsius sink = grid->sinkTemp();

    ExplicitReference ref(grid->spectralNetwork(),
                          ExplicitReference::kShadowDtSafety);
    ref.loadState(si, sp, sink);
    ref.setPower(grid->cellPower());
    ref.step(80e-6);
    EXPECT_LT(maxMove(si, sp, sink, ref.silicon(), ref.spreader(),
                      ref.sinkTemp()),
              1e-9);
}

TEST_P(SteadyStateFixedPoint, OneSpectralStepMovesNoNode)
{
    // The same bound for the solver's own solve, straight from its
    // power modes, followed by one exact step at the same power.
    SpectralThermalSolver solver(grid->spectralNetwork());
    solver.setPower(grid->cellPower());
    solver.solveSteadyState();
    std::vector<Celsius> si;
    std::vector<Celsius> sp;
    solver.realizeSilicon(si);
    solver.realizeSpreader(sp);
    const Celsius sink = solver.sinkTemp();

    solver.step(80e-6);
    std::vector<Celsius> si_after;
    std::vector<Celsius> sp_after;
    solver.realizeSilicon(si_after);
    solver.realizeSpreader(sp_after);
    EXPECT_LT(maxMove(si, sp, sink, si_after, sp_after, solver.sinkTemp()),
              1e-9);
}

TEST_P(SteadyStateFixedPoint, SpectralSolveIgnoresPriorState)
{
    // The solve replaces every mode and the sink: two solvers loaded
    // with different random states publish the same bits.
    const int n = params.nx * params.ny;
    std::vector<Celsius> si[2];
    std::vector<Celsius> sp[2];
    Celsius sink[2] = {};
    for (int k = 0; k < 2; ++k) {
        Rng rng(1234 + k);
        std::vector<Celsius> si0(n);
        std::vector<Celsius> sp0(n);
        for (int i = 0; i < n; ++i) {
            si0[i] = rng.uniform(20.0, 120.0);
            sp0[i] = rng.uniform(20.0, 120.0);
        }
        SpectralThermalSolver solver(grid->spectralNetwork());
        solver.loadState(si0, sp0, rng.uniform(20.0, 120.0));
        solver.setPower(grid->cellPower());
        solver.solveSteadyState();
        solver.realizeSilicon(si[k]);
        solver.realizeSpreader(sp[k]);
        sink[k] = solver.sinkTemp();
    }
    const size_t bytes = n * sizeof(Celsius);
    EXPECT_EQ(std::memcmp(si[0].data(), si[1].data(), bytes), 0);
    EXPECT_EQ(std::memcmp(sp[0].data(), sp[1].data(), bytes), 0);
    EXPECT_EQ(std::memcmp(&sink[0], &sink[1], sizeof(Celsius)), 0);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, SteadyStateFixedPoint,
                         ::testing::Values(64, 24));

TEST(ThermalProperties, SuperpositionOfSources)
{
    // Linear network: T(P1 + P2) - Tamb == (T(P1) - Tamb) + (T(P2) -
    // Tamb) at steady state.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    params.nx = 16;
    params.ny = 16;
    auto solve = [&](std::vector<Watts> p) {
        ThermalGrid grid(fp, params);
        grid.setUnitPower(p);
        grid.solveSteadyState();
        return grid.siliconTemps();
    };
    std::vector<Watts> p1(fp.numUnits(), 0.0);
    std::vector<Watts> p2(fp.numUnits(), 0.0);
    p1[fp.findUnit(UnitKind::IntALU, 0)] = 3.0;
    p2[fp.findUnit(UnitKind::DCache, 0)] = 5.0;
    std::vector<Watts> sum = p1;
    for (size_t i = 0; i < sum.size(); ++i)
        sum[i] += p2[i];
    const auto t1 = solve(p1);
    const auto t2 = solve(p2);
    const auto ts = solve(sum);
    for (size_t i = 0; i < ts.size(); i += 7) {
        EXPECT_NEAR(ts[i] - kAmbient,
                    (t1[i] - kAmbient) + (t2[i] - kAmbient), 0.05);
    }
}

// ---------------------------------------------------------------------
// GBT properties.
// ---------------------------------------------------------------------

TEST(GBTProperties, InvariantToConstantFeatures)
{
    // A feature with a single value can never split; adding one must
    // not change predictions.
    Rng rng(11);
    Dataset base({"x"});
    Dataset padded({"x", "constant"});
    for (int i = 0; i < 400; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        base.addRow({x}, std::sin(3.0 * x), i % 3);
        padded.addRow({x, 42.0}, std::sin(3.0 * x), i % 3);
    }
    GBTParams params;
    params.nEstimators = 30;
    GBTRegressor a, b;
    a.train(base, params);
    b.train(padded, params);
    for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        const std::vector<double> xa{x};
        const std::vector<double> xb{x, 42.0};
        EXPECT_DOUBLE_EQ(a.predict(xa), b.predict(xb));
    }
    EXPECT_DOUBLE_EQ(b.featureImportance()[1], 0.0);
}

TEST(GBTProperties, PredictionsBoundedByTargetRangeOnTraining)
{
    // With squared loss and lr<=1 level-wise trees, in-distribution
    // predictions should stay within a modest margin of the label
    // range.
    Rng rng(13);
    Dataset d({"a", "b"});
    for (int i = 0; i < 600; ++i) {
        const double a = rng.uniform(0.0, 1.0);
        const double b = rng.uniform(0.0, 1.0);
        d.addRow({a, b}, 0.3 + 0.4 * a * b, i % 4);
    }
    GBTRegressor model;
    model.train(d, GBTParams{.nEstimators = 60});
    for (size_t r = 0; r < d.numRows(); r += 11) {
        const double p = model.predict(d.row(r));
        EXPECT_GT(p, 0.3 - 0.1);
        EXPECT_LT(p, 0.7 + 0.1);
    }
}

class GBTDepthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(GBTDepthSweep, DeeperTreesFitTrainingAtLeastAsWell)
{
    Rng rng(17);
    Dataset d({"x0", "x1", "x2"});
    for (int i = 0; i < 800; ++i) {
        const double x0 = rng.uniform(-1.0, 1.0);
        const double x1 = rng.uniform(-1.0, 1.0);
        const double x2 = rng.uniform(-1.0, 1.0);
        d.addRow({x0, x1, x2}, x0 * x1 + 0.5 * x2, i % 4);
    }
    const int depth = GetParam();
    GBTParams shallow, deep;
    shallow.maxDepth = depth;
    deep.maxDepth = depth + 2;
    shallow.nEstimators = deep.nEstimators = 40;
    GBTRegressor ms, md;
    ms.train(d, shallow);
    md.train(d, deep);
    EXPECT_LE(md.mse(d), ms.mse(d) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, GBTDepthSweep,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// Dataset-builder properties.
// ---------------------------------------------------------------------

TEST(DatasetBuilderProperties, LabelsRespectTheClamp)
{
    SimulationPipeline p(fastPipelineConfig());
    DatasetConfig cfg;
    cfg.frequencies = {5.0}; // deep into unsafe territory
    cfg.walkSegments = 0;
    cfg.traceSteps = 60;
    cfg.labelClamp = 1.1;
    const SourceSet wl = wrapSpecs({&findWorkload("povray")});
    const BuiltData built = buildTrainingData(p, wl.sources, cfg);
    double max_label = 0.0;
    for (size_t r = 0; r < built.severity.numRows(); ++r)
        max_label = std::max(max_label, built.severity.y(r));
    EXPECT_LE(max_label, 1.1 + 1e-12);
    EXPECT_NEAR(max_label, 1.1, 1e-9); // povray@5GHz definitely hits it
}

TEST(DatasetBuilderProperties, LongerHorizonNeverLowersLabels)
{
    // The label is a running max: growing the window can only keep or
    // raise it (same trajectory, matched rows).
    SimulationPipeline p(fastPipelineConfig());
    DatasetConfig short_cfg;
    short_cfg.frequencies = {4.5};
    short_cfg.walkSegments = 0;
    short_cfg.traceSteps = 72;
    short_cfg.horizonSteps = 6;
    short_cfg.intensityAugments = {1.0}; // single trace: rows align
    DatasetConfig long_cfg = short_cfg;
    long_cfg.horizonSteps = 24;
    const SourceSet wl = wrapSpecs({&findWorkload("gamess")});
    const BuiltData a = buildTrainingData(p, wl.sources, short_cfg);
    const BuiltData b = buildTrainingData(p, wl.sources, long_cfg);
    // Rows align on the first (traceSteps - 24) instances.
    const size_t n = b.severity.numRows();
    ASSERT_LE(n, a.severity.numRows());
    for (size_t r = 0; r < n; ++r)
        EXPECT_GE(b.severity.y(r) + 1e-12, a.severity.y(r));
}

// ---------------------------------------------------------------------
// Workload-suite properties.
// ---------------------------------------------------------------------

TEST(WorkloadProperties, MixFractionsStayNormalized)
{
    for (const auto &w : spec2006Suite()) {
        for (const auto &phase : w.phases) {
            const auto &p = phase.params;
            EXPECT_GE(p.fpFraction, 0.0) << w.name;
            EXPECT_GE(p.mulFraction, 0.0) << w.name;
            EXPECT_LE(p.fpFraction + p.mulFraction, 1.0) << w.name;
            EXPECT_LE(p.loadFraction + p.storeFraction, 0.8) << w.name;
            EXPECT_GT(p.baseCpi, 0.2) << w.name;
            EXPECT_GT(p.intensity, 0.0) << w.name;
        }
    }
}

TEST(WorkloadProperties, DwellTimesResolvableAtTelemetryRate)
{
    // Phases shorter than one telemetry step would alias.
    for (const auto &w : spec2006Suite())
        for (const auto &phase : w.phases)
            EXPECT_GE(phase.meanDuration, 4 * kTelemetryStep) << w.name;
}
