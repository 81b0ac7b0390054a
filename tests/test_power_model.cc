/** @file Unit tests for the per-unit power model. */

#include <gtest/gtest.h>

#include "arch/core_model.hh"
#include "floorplan/skylake.hh"
#include "power/power_model.hh"

using namespace boreas;

namespace
{

struct PowerFixture : public ::testing::Test
{
    PowerFixture()
        : fp(buildSkylakeFloorplan()), model(fp),
          ambient_temps(fp.numUnits(), kAmbient)
    {
    }

    CounterSet
    typicalCounters(GHz freq, double fp_frac = 0.1)
    {
        IntervalCore core;
        Rng rng(1);
        PhaseParams p;
        p.activityNoise = 0.0;
        p.fpFraction = fp_frac;
        return core.step(p, freq, 80e-6, rng);
    }

    /**
     * Unit power over one 80 us interval with core 0 running
     * `counters` (nullptr: every core idles) at ambient temperature.
     */
    std::vector<Watts>
    unitPower(const CounterSet *counters, double intensity, GHz freq,
              Volts volts)
    {
        return model.unitPowerMulti({counters}, {intensity}, freq, volts,
                                    ambient_temps, 80e-6);
    }

    Floorplan fp;
    PowerModel model;
    std::vector<Celsius> ambient_temps;
};

} // namespace

TEST_F(PowerFixture, AllUnitPowersNonNegative)
{
    const CounterSet c = typicalCounters(4.0);
    const auto p = unitPower(&c, 1.0, 4.0, 0.98);
    ASSERT_EQ(p.size(), fp.numUnits());
    for (Watts w : p)
        EXPECT_GE(w, 0.0);
}

TEST_F(PowerFixture, TotalPowerInPlausibleTurboRange)
{
    const CounterSet c = typicalCounters(4.0);
    const auto p = unitPower(&c, 1.0, 4.0, 0.98);
    const Watts total = PowerModel::totalPower(p);
    EXPECT_GT(total, 5.0);
    EXPECT_LT(total, 60.0);
}

TEST_F(PowerFixture, VoltageSquaredScalingOfDynamicPower)
{
    // Same counters, two voltages: the dynamic component must scale by
    // (V2/V1)^2. Compare with leakage at fixed temperature subtracted.
    const CounterSet c = typicalCounters(4.0);
    const auto p1 = unitPower(&c, 1.0, 4.0, 1.0);
    const auto p2 = unitPower(&c, 1.0, 4.0, 1.2);
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    const Watts leak1 = model.leakagePower(alu, kAmbient, 1.0);
    const Watts leak2 = model.leakagePower(alu, kAmbient, 1.2);
    const double dyn_ratio =
        (p2[alu] - leak2) / (p1[alu] - leak1);
    EXPECT_NEAR(dyn_ratio, 1.44, 0.01);
}

TEST_F(PowerFixture, LeakageMonotoneInTemperature)
{
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    Watts prev = 0.0;
    for (Celsius t = 45.0; t <= 115.0; t += 10.0) {
        const Watts leak = model.leakagePower(alu, t, 1.0);
        EXPECT_GT(leak, prev);
        prev = leak;
    }
}

TEST_F(PowerFixture, LeakageClampedAboveValidityCeiling)
{
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    const Watts at_cap =
        model.leakagePower(alu, model.params().leakTmax, 1.0);
    const Watts above =
        model.leakagePower(alu, model.params().leakTmax + 200.0, 1.0);
    EXPECT_DOUBLE_EQ(at_cap, above);
}

TEST_F(PowerFixture, IdleCoresDrawMuchLessThanActiveCore)
{
    const CounterSet c = typicalCounters(4.0);
    const auto p = unitPower(&c, 1.0, 4.0, 0.98);
    auto core_power = [&](int core) {
        Watts acc = 0.0;
        for (size_t i = 0; i < fp.numUnits(); ++i)
            if (fp.unit(i).coreId == core)
                acc += p[i];
        return acc;
    };
    EXPECT_GT(core_power(0), 3.0 * core_power(1));
}

TEST_F(PowerFixture, FpHeavyPhaseShiftsPowerToFpu)
{
    const CounterSet c_int = typicalCounters(4.0, 0.02);
    const CounterSet c_fp = typicalCounters(4.0, 0.45);
    const auto p_int = unitPower(&c_int, 1.0, 4.0, 0.98);
    const auto p_fp = unitPower(&c_fp, 1.0, 4.0, 0.98);
    const int fpu = fp.findUnit(UnitKind::FPU, 0);
    EXPECT_GT(p_fp[fpu], 2.0 * p_int[fpu]);
}

TEST_F(PowerFixture, PowerIsAffineInIntensity)
{
    // Event and clock power scale linearly with the workload intensity
    // (leakage and idle power do not): equal intensity increments give
    // equal power increments.
    const CounterSet c = typicalCounters(4.0);
    const int alu = fp.findUnit(UnitKind::IntALU, 0);
    auto alu_power = [&](double intensity) {
        return unitPower(&c, intensity, 4.0, 0.98)[alu];
    };
    const Watts p1 = alu_power(1.0);
    const Watts p2 = alu_power(2.0);
    const Watts p3 = alu_power(3.0);
    EXPECT_GT(p2, p1);
    EXPECT_NEAR(p3 - p2, p2 - p1, 1e-9);
}

TEST_F(PowerFixture, MoreWorkMorePower)
{
    IntervalCore core;
    Rng rng(1);
    PhaseParams fast, slow;
    fast.activityNoise = slow.activityNoise = 0.0;
    fast.baseCpi = 0.3;
    slow.baseCpi = 2.0;
    const CounterSet cf = core.step(fast, 4.0, 80e-6, rng);
    const CounterSet cs = core.step(slow, 4.0, 80e-6, rng);
    const Watts pf =
        PowerModel::totalPower(unitPower(&cf, 1.0, 4.0, 0.98));
    const Watts ps =
        PowerModel::totalPower(unitPower(&cs, 1.0, 4.0, 0.98));
    EXPECT_GT(pf, ps);
}

TEST_F(PowerFixture, UncoreUnitsAlwaysDraw)
{
    // L3 and SoC draw idle power even when no core is active.
    const auto p = unitPower(nullptr, 1.0, 2.0, 0.64);
    const int l3 = fp.findUnit(UnitKind::L3, -1);
    EXPECT_GT(p[l3], 0.1);
}
