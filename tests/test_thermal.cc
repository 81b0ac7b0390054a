/** @file Unit tests for the RC-grid thermal solver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/checked.hh"
#include "common/rng.hh"
#include "floorplan/skylake.hh"
#include "thermal/explicit_reference.hh"
#include "thermal/spectral_solver.hh"
#include "thermal/thermal_grid.hh"

using namespace boreas;

namespace
{

ThermalParams
smallGrid()
{
    ThermalParams p;
    p.nx = 16;
    p.ny = 16;
    return p;
}

} // namespace

TEST(ThermalGrid, StartsAtAmbient)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    for (Celsius t : grid.siliconTemps())
        EXPECT_DOUBLE_EQ(t, kAmbient);
    EXPECT_DOUBLE_EQ(grid.sinkTemp(), kAmbient);
}

TEST(ThermalGrid, ZeroPowerStaysAtAmbient)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    grid.setUnitPower(std::vector<Watts>(fp.numUnits(), 0.0));
    for (int i = 0; i < 100; ++i)
        grid.step(80e-6);
    EXPECT_NEAR(grid.maxSiliconTemp(), kAmbient, 1e-9);
}

TEST(ThermalGrid, StableDtIsPositiveAndSubMillisecond)
{
    const Floorplan fp = buildSkylakeFloorplan();
    // The forward-Euler reference's stability bound on the grid's
    // network (the substep the checked-build shadow run takes).
    const ThermalGrid grid(fp, smallGrid());
    const ExplicitReference ref(grid.spectralNetwork(),
                                ExplicitReference::kShadowDtSafety);
    EXPECT_GT(ref.maxStableDt(), 0.0);
    EXPECT_LT(ref.maxStableDt(), 1e-3);
}

TEST(ThermalGrid, HeatingRaisesTemperatureOverHotUnit)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    std::vector<Watts> power(fp.numUnits(), 0.0);
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    power[alu] = 5.0;
    grid.setUnitPower(power);
    for (int i = 0; i < 50; ++i)
        grid.step(80e-6);
    const Point alu_center = fp.unit(alu).rect.center();
    const Point far_corner{fp.dieWidth() * 0.95,
                           fp.dieHeight() * 0.95};
    EXPECT_GT(grid.temperatureAt(alu_center), kAmbient + 5.0);
    EXPECT_GT(grid.temperatureAt(alu_center),
              grid.temperatureAt(far_corner) + 5.0);
}

TEST(ThermalGrid, SteadyStateEnergyBalance)
{
    // At steady state, all injected power must flow to ambient through
    // the sink: P = (T_sink - T_amb) / R_sink_ambient.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params = smallGrid();
    ThermalGrid grid(fp, params);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[fp.findUnit(UnitKind::DCache, 0)] = 10.0;
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const double flow = (grid.sinkTemp() - params.ambient) /
        params.sinkAmbientResistance;
    EXPECT_NEAR(flow, 10.0, 0.05);
    // Mode 0 of the closed-form solve is that balance, exactly.
    EXPECT_NEAR(grid.sinkTemp(),
                params.ambient +
                    grid.totalPower() * params.sinkAmbientResistance,
                1e-9);
}

TEST(ThermalGrid, SteadyStateIndependentOfPriorState)
{
    // The solve reads only the power map: solving from ambient and
    // solving after a hot transient give the same bits.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid cold(fp, ThermalParams{});
    ThermalGrid hot(fp, ThermalParams{});
    std::vector<Watts> power(fp.numUnits(), 0.5);
    power[fp.findUnit(UnitKind::FPU, 0)] = 6.0;

    std::vector<Watts> heat(fp.numUnits(), 3.0);
    hot.setUnitPower(heat);
    for (int i = 0; i < 200; ++i)
        hot.step(80e-6);

    cold.setUnitPower(power);
    hot.setUnitPower(power);
    cold.solveSteadyState();
    hot.solveSteadyState();
    EXPECT_TRUE(cold.siliconTemps() == hot.siliconTemps());
    EXPECT_TRUE(cold.spreaderTemps() == hot.spreaderTemps());
    EXPECT_EQ(cold.sinkTemp(), hot.sinkTemp());
}

TEST(ThermalGrid, SteadyStateIdenticalForEverySolver)
{
    // One closed-form solve warm-starts both integrators: it is a
    // fixed point of the grid's spectral step and of the reference's
    // stencil alike, here at a fine 0.025 safety factor.
    const Floorplan fp = buildSkylakeFloorplan();
    std::vector<Watts> power(fp.numUnits(), 0.5);
    power[fp.findUnit(UnitKind::IntALU, 1)] = 4.5;
    ThermalGrid grid(fp, ThermalParams{});
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const std::vector<Celsius> held = grid.siliconTemps();

    ExplicitReference euler(grid.spectralNetwork(), 0.025);
    euler.loadState(grid.siliconTemps(), grid.spreaderTemps(),
                    grid.sinkTemp());
    euler.setPower(grid.cellPower());
    euler.step(80e-6);
    grid.step(80e-6);
    for (size_t i = 0; i < held.size(); ++i) {
        ASSERT_NEAR(grid.siliconTemps()[i], held[i], 1e-9) << i;
        ASSERT_NEAR(euler.silicon()[i], held[i], 1e-9) << i;
    }
}

TEST(ThermalGrid, TransientConvergesToSteadyState)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params = smallGrid();
    // Tiny sink capacitance so the whole stack settles within the test.
    params.sinkCapacitance = 0.05;
    ThermalGrid steady(fp, params);
    ThermalGrid transient(fp, params);

    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[fp.findUnit(UnitKind::FPU, 0)] = 8.0;
    steady.setUnitPower(power);
    steady.solveSteadyState();

    transient.setUnitPower(power);
    for (int i = 0; i < 4000; ++i)
        transient.step(80e-6);

    const auto &ts = steady.siliconTemps();
    const auto &tt = transient.siliconTemps();
    double max_err = 0.0;
    for (size_t i = 0; i < ts.size(); ++i)
        max_err = std::max(max_err, std::fabs(ts[i] - tt[i]));
    EXPECT_LT(max_err, 0.5);
}

TEST(ThermalGrid, MorePowerMeansHigherSteadyTemp)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    std::vector<Watts> power(fp.numUnits(), 0.0);

    power[alu] = 2.0;
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const Celsius t2 = grid.maxSiliconTemp();

    grid.reset(kAmbient);
    power[alu] = 6.0;
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const Celsius t6 = grid.maxSiliconTemp();
    EXPECT_GT(t6, t2 + 1.0);
}

TEST(ThermalGrid, LinearityOfSteadyState)
{
    // The network is linear: doubling power doubles the rise.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params = smallGrid();
    ThermalGrid grid(fp, params);
    const int fpu = fp.findUnit(UnitKind::FPU, 0);
    std::vector<Watts> power(fp.numUnits(), 0.0);

    power[fpu] = 3.0;
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const double rise1 = grid.maxSiliconTemp() - params.ambient;

    grid.reset(params.ambient);
    power[fpu] = 6.0;
    grid.setUnitPower(power);
    grid.solveSteadyState();
    const double rise2 = grid.maxSiliconTemp() - params.ambient;
    EXPECT_NEAR(rise2 / rise1, 2.0, 0.01);
}

TEST(ThermalGrid, FastLocalTransient)
{
    // The advanced-hotspot property: a strong local source must raise
    // its cell by several degrees within ~200 us (microsecond-scale
    // hotspot formation).
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{}); // default 64x64
    std::vector<Watts> power(fp.numUnits(), 0.0);
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    power[alu] = 6.0;
    grid.setUnitPower(power);
    const Point site = fp.unit(alu).rect.center();
    const Celsius before = grid.temperatureAt(site);
    grid.step(160e-6);
    EXPECT_GT(grid.temperatureAt(site), before + 3.0);
}

TEST(ThermalGrid, UnitTempsAreAreaWeightedAverages)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    std::vector<Watts> power(fp.numUnits(), 0.0);
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    power[alu] = 5.0;
    grid.setUnitPower(power);
    for (int i = 0; i < 100; ++i)
        grid.step(80e-6);
    const auto unit_temps = grid.unitTemps();
    // The heated unit must be the hottest unit.
    for (size_t i = 0; i < unit_temps.size(); ++i)
        EXPECT_LE(unit_temps[i], unit_temps[alu] + 1e-9);
    // And its average is between ambient and the global max.
    EXPECT_GT(unit_temps[alu], kAmbient);
    EXPECT_LE(unit_temps[alu], grid.maxSiliconTemp());
}

TEST(ThermalGrid, CellGeometryRoundTrip)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    for (int cell : {0, 5, 17, 255}) {
        EXPECT_EQ(grid.cellAt(grid.cellCenter(cell)), cell);
    }
}

TEST(ThermalGrid, ResetRestoresUniformState)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    std::vector<Watts> power(fp.numUnits(), 1.0);
    grid.setUnitPower(power);
    for (int i = 0; i < 20; ++i)
        grid.step(80e-6);
    grid.reset(60.0);
    for (Celsius t : grid.siliconTemps())
        EXPECT_DOUBLE_EQ(t, 60.0);
    EXPECT_DOUBLE_EQ(grid.sinkTemp(), 60.0);
}

TEST(ThermalGrid, TotalPowerReportsInjectedSum)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    std::vector<Watts> power(fp.numUnits(), 0.5);
    grid.setUnitPower(power);
    EXPECT_NEAR(grid.totalPower(), 0.5 * fp.numUnits(), 1e-9);
}

class ThermalSubstepInvariance : public ::testing::TestWithParam<double>
{
  protected:
    /** 5 W on one IntALU; a tight safety factor keeps the reference
     *  substeps small. */
    static constexpr double kDtSafety = 0.1;

    ThermalSubstepInvariance() : fp_(buildSkylakeFloorplan())
    {
        params_ = smallGrid();
        power_.assign(fp_.numUnits(), 0.0);
        power_[fp_.findUnit(UnitKind::IntALU, 0)] = 5.0;
    }

    Floorplan fp_;
    ThermalParams params_;
    std::vector<Watts> power_;
};

TEST_P(ThermalSubstepInvariance, ResultIndependentOfStepPartition)
{
    // Integrating 800 us as one call or as many smaller calls must give
    // the same state: the spectral step is exact at any dt, so the
    // partitions differ by round-off only.
    ThermalGrid a(fp_, params_);
    ThermalGrid b(fp_, params_);
    a.setUnitPower(power_);
    b.setUnitPower(power_);

    const double piece = GetParam();
    a.step(800e-6);
    for (double t = 0.0; t < 800e-6 - 1e-12; t += piece)
        b.step(piece);

    const auto &ta = a.siliconTemps();
    const auto &tb = b.siliconTemps();
    for (size_t i = 0; i < ta.size(); ++i)
        EXPECT_NEAR(ta[i], tb[i], 1e-12);
    EXPECT_NEAR(a.sinkTemp(), b.sinkTemp(), 1e-12);
}

TEST_P(ThermalSubstepInvariance, ReferenceResultIndependentOfStepPartition)
{
    // The forward-Euler reference substeps internally, so a partition
    // changes its substep length and with it the O(h) truncation: the
    // states agree only to that error, not to round-off.
    ThermalGrid grid(fp_, params_);
    grid.setUnitPower(power_);
    ExplicitReference a(grid.spectralNetwork(), kDtSafety);
    ExplicitReference b(grid.spectralNetwork(), kDtSafety);
    a.setPower(grid.cellPower());
    b.setPower(grid.cellPower());

    const double piece = GetParam();
    a.step(800e-6);
    for (double t = 0.0; t < 800e-6 - 1e-12; t += piece)
        b.step(piece);

    const auto &ta = a.silicon();
    const auto &tb = b.silicon();
    for (size_t i = 0; i < ta.size(); i += 7)
        EXPECT_NEAR(ta[i], tb[i], 0.12);
}

INSTANTIATE_TEST_SUITE_P(Partitions, ThermalSubstepInvariance,
                         ::testing::Values(80e-6, 160e-6, 400e-6));

TEST(ThermalGrid, RepeatedIdenticalPowerVectorIsHarmless)
{
    // Re-setting an identical power vector rescatters it to the same
    // cell powers; the trajectory must be bit-identical to setting it
    // once.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid a(fp, smallGrid());
    ThermalGrid b(fp, smallGrid());
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[fp.findUnit(UnitKind::IntALU, 0)] = 4.0;

    a.setUnitPower(power);
    b.setUnitPower(power);
    for (int i = 0; i < 25; ++i) {
        // a: redundant re-set every step; b: set once.
        a.setUnitPower(std::vector<Watts>(power));
        a.step(80e-6);
        b.step(80e-6);
    }
    const auto &ta = a.siliconTemps();
    const auto &tb = b.siliconTemps();
    for (size_t i = 0; i < ta.size(); ++i)
        ASSERT_EQ(ta[i], tb[i]);
    EXPECT_EQ(a.sinkTemp(), b.sinkTemp());
}

TEST(ThermalGrid, ChangedPowerVectorIsNotSkipped)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    std::vector<Watts> power(fp.numUnits(), 1.0);
    grid.setUnitPower(power);
    EXPECT_NEAR(grid.totalPower(), fp.numUnits(), 1e-9);
    power.back() = 3.0; // one element differs -> must rescatter
    grid.setUnitPower(power);
    EXPECT_NEAR(grid.totalPower(), fp.numUnits() + 2.0, 1e-9);
}

TEST(ThermalGrid, IngestMatchesPerUnitScatterBitwise)
{
    // setUnitPower must sum every cell exactly as a zero-fill plus
    // per-unit scatter does: the same terms in unit order, and +0.0
    // where a -0.0 product meets the zero fill. That scatter is the
    // oracle here; its cell power drives a raw solver, and the grid's
    // published field must match it bit for bit.
    const Floorplan fp = buildSkylakeFloorplan();
    for (int n : {64, 32, 24}) {
        SCOPED_TRACE(testing::Message() << n << "x" << n);
        ThermalParams params;
        params.nx = n;
        params.ny = n;
        ThermalGrid grid(fp, params);
        SpectralThermalSolver solver(grid.spectralNetwork());
        const std::vector<Celsius> ambient(grid.numCells(),
                                           params.ambient);
        solver.loadState(ambient, ambient, params.ambient);

        // The order is only observable where three or more units
        // share a cell (a + b == b + a).
        const std::vector<UnitCellMap> maps = fp.rasterize(n, n);
        std::vector<int> terms(grid.numCells(), 0);
        for (const UnitCellMap &map : maps) {
            for (int c : map.cells)
                ++terms[c];
        }
        ASSERT_GE(*std::max_element(terms.begin(), terms.end()), 3);

        Rng rng(100 + n);
        std::vector<Watts> power(fp.numUnits());
        for (Watts &p : power)
            p = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 6.0);
        power[0] = -0.0; // the first share of each of its cells

        std::vector<Watts> oracle(grid.numCells(), 0.0);
        for (size_t u = 0; u < maps.size(); ++u) {
            for (size_t k = 0; k < maps[u].cells.size(); ++k)
                oracle[maps[u].cells[k]] += power[u] * maps[u].fractions[k];
        }

        grid.setUnitPower(power);
        ASSERT_EQ(std::memcmp(grid.cellPower().data(), oracle.data(),
                              oracle.size() * sizeof(Watts)),
                  0);
        grid.step(80e-6);
        solver.setPower(oracle);
        solver.step(80e-6);
        std::vector<Celsius> si(grid.numCells());
        solver.realizeSilicon(si);
        EXPECT_EQ(std::memcmp(grid.siliconTemps().data(), si.data(),
                              si.size() * sizeof(Celsius)),
                  0);
        EXPECT_EQ(grid.sinkTemp(), solver.sinkTemp());
    }
}

TEST(ThermalGrid, UnitTempsMatchPerUnitGatherBitwise)
{
    // unitTemps() must average every unit exactly as a per-unit gather
    // over the rasterized map does: temperature times fraction summed
    // in cell order, divided by the fraction sum summed in the same
    // order, ambient for a unit that covers no cell. That gather is
    // the oracle here.
    const Floorplan fp = buildSkylakeFloorplan();
    for (int n : {64, 32, 24}) {
        SCOPED_TRACE(testing::Message() << n << "x" << n);
        ThermalParams params;
        params.nx = n;
        params.ny = n;
        ThermalGrid grid(fp, params);

        Rng rng(200 + n);
        std::vector<Watts> power(fp.numUnits());
        for (Watts &p : power)
            p = rng.uniform(0.0, 6.0);
        grid.setUnitPower(power);
        for (int i = 0; i < 5; ++i)
            grid.step(80e-6);

        const std::vector<Celsius> &si = grid.siliconTemps();
        const std::vector<UnitCellMap> maps = fp.rasterize(n, n);
        std::vector<Celsius> oracle(fp.numUnits(), params.ambient);
        for (size_t u = 0; u < maps.size(); ++u) {
            double acc = 0.0;
            double wsum = 0.0;
            for (size_t k = 0; k < maps[u].cells.size(); ++k) {
                acc += si[maps[u].cells[k]] * maps[u].fractions[k];
                wsum += maps[u].fractions[k];
            }
            if (wsum > 0.0)
                oracle[u] = acc / wsum;
        }

        const std::vector<Celsius> &got = grid.unitTemps();
        ASSERT_EQ(got.size(), oracle.size());
        EXPECT_EQ(std::memcmp(got.data(), oracle.data(),
                              oracle.size() * sizeof(Celsius)),
                  0);
    }
}

using ThermalGridDeathTest = ::testing::Test;

TEST(ThermalGridDeathTest, MidRunDtChangeIsFlaggedInCheckedBuilds)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "dt-change flagging is checked-build only";
    // The per-dt step plan assumes the pipeline's fixed-stepLength
    // pattern; changing dt mid-run (without a reset) trips the check.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, smallGrid());
    grid.setUnitPower(std::vector<Watts>(fp.numUnits(), 0.0));
    grid.step(80e-6);
    EXPECT_DEATH(grid.step(160e-6), "dt changed mid-run");
    // A reset starts a fresh run; a new dt is then fine.
    grid.reset(kAmbient);
    grid.step(160e-6);
}
