/** @file Unit tests for thermal sensors and placement. */

#include <gtest/gtest.h>

#include "floorplan/skylake.hh"
#include "sensors/placement.hh"
#include "sensors/sensor.hh"
#include "thermal/thermal_grid.hh"

using namespace boreas;

namespace
{

struct SensorFixture : public ::testing::Test
{
    SensorFixture()
        : fp(buildSkylakeFloorplan()),
          grid(fp, [] {
              ThermalParams p;
              p.nx = 16;
              p.ny = 16;
              return p;
          }()),
          rng(1)
    {
        alu = fp.findUnit(UnitKind::IntALU, 0);
        site = fp.unit(alu).rect.center();
    }

    /** Heat the ALU and advance one telemetry step. */
    void
    heatStep(std::vector<ThermalSensor *> sensors, Watts watts)
    {
        std::vector<Watts> power(fp.numUnits(), 0.0);
        power[alu] = watts;
        grid.setUnitPower(power);
        grid.step(80e-6);
        for (auto *s : sensors)
            s->sample(grid, rng);
    }

    Floorplan fp;
    ThermalGrid grid;
    Rng rng;
    int alu = -1;
    Point site;
};

} // namespace

TEST_F(SensorFixture, ZeroDelayTracksTrueTemperature)
{
    SensorParams params;
    params.delaySteps = 0;
    ThermalSensor s("s", site, params);
    for (int i = 0; i < 30; ++i) {
        heatStep({&s}, 5.0);
        EXPECT_DOUBLE_EQ(s.reading(), s.lastTrueTemp());
    }
    EXPECT_GT(s.reading(), kAmbient + 1.0);
}

TEST_F(SensorFixture, DelayedReadingLagsByExactlyDelaySteps)
{
    SensorParams delayed;
    delayed.delaySteps = 5;
    ThermalSensor lag("lag", site, delayed);
    ThermalSensor now("now", site, SensorParams{.delaySteps = 0});

    std::vector<Celsius> history;
    for (int i = 0; i < 40; ++i) {
        heatStep({&lag, &now}, 6.0);
        history.push_back(now.reading());
        if (i >= 5) {
            EXPECT_DOUBLE_EQ(lag.reading(), history[i - 5]);
        }
    }
    // While heating, the delayed reading is strictly behind (cooler).
    EXPECT_LT(lag.reading(), now.reading());
}

// Regression (sensor warm-up under-delay): a freshly constructed
// sensor must honor its full delay from the first sample on. The old
// code left the prefilled history marked empty, so reading() clamped
// its look-back to the samples taken so far and a 960 µs-delay sensor
// (12 telemetry steps at 80 µs) returned the *current* temperature on
// step one.
TEST_F(SensorFixture, FreshSensorNeverUnderDelays)
{
    SensorParams params;
    params.delaySteps = 12; // 960 µs at the 80 µs telemetry step
    ThermalSensor lag("lag", site, params);
    ThermalSensor now("now", site, SensorParams{.delaySteps = 0});

    std::vector<Celsius> history;
    for (int i = 0; i < 40; ++i) {
        heatStep({&lag, &now}, 6.0);
        history.push_back(now.reading());
        if (i < 12) {
            // Nothing younger than delaySteps may surface: the sensor
            // still reports its power-on (ambient) history.
            EXPECT_DOUBLE_EQ(lag.reading(), kAmbient) << "step " << i;
        } else {
            EXPECT_DOUBLE_EQ(lag.reading(), history[i - 12])
                << "step " << i;
        }
        // The reading is never newer than the delayed sample (the
        // true temperature rises monotonically under constant power).
        EXPECT_LE(lag.reading(),
                  i >= 12 ? history[i - 12] : kAmbient);
    }
}

// Construction and reset(kAmbient) are now the same state.
TEST_F(SensorFixture, FreshSensorMatchesAmbientReset)
{
    SensorParams params;
    params.delaySteps = 10;
    ThermalSensor fresh("fresh", site, params);
    ThermalSensor resetted("reset", site, params);
    resetted.reset(kAmbient);
    Rng rng_a(7), rng_b(7);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[alu] = 6.0;
    grid.setUnitPower(power);
    for (int i = 0; i < 25; ++i) {
        grid.step(80e-6);
        fresh.sample(grid, rng_a);
        resetted.sample(grid, rng_b);
        EXPECT_DOUBLE_EQ(fresh.reading(), resetted.reading());
    }
}

TEST_F(SensorFixture, NoiseIsDeterministicPerRng)
{
    SensorParams noisy;
    noisy.delaySteps = 0;
    noisy.noiseSigma = 0.5;
    ThermalSensor a("a", site, noisy);
    ThermalSensor b("b", site, noisy);
    Rng rng_a(3), rng_b(3);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[alu] = 5.0;
    grid.setUnitPower(power);
    for (int i = 0; i < 10; ++i) {
        grid.step(80e-6);
        a.sample(grid, rng_a);
        b.sample(grid, rng_b);
        EXPECT_DOUBLE_EQ(a.reading(), b.reading());
    }
}

TEST_F(SensorFixture, ResetPrefillsHistory)
{
    SensorParams params;
    params.delaySteps = 8;
    ThermalSensor s("s", site, params);
    s.reset(70.0);
    EXPECT_DOUBLE_EQ(s.reading(), 70.0);
    heatStep({&s}, 0.0);
    // Still reading the pre-filled history for delaySteps samples.
    EXPECT_DOUBLE_EQ(s.reading(), 70.0);
}

TEST_F(SensorFixture, BankSamplesAllSensors)
{
    SensorBank bank;
    bank.addSensor("a", site, SensorParams{.delaySteps = 0});
    bank.addSensor("b", {fp.dieWidth() * 0.9, fp.dieHeight() * 0.9},
                   SensorParams{.delaySteps = 0});
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[alu] = 6.0;
    grid.setUnitPower(power);
    for (int i = 0; i < 30; ++i) {
        grid.step(80e-6);
        bank.sampleAll(grid, 80e-6, rng);
    }
    const auto readings = bank.readings();
    ASSERT_EQ(readings.size(), 2u);
    // Sensor on the hot unit reads hotter than the far-corner sensor.
    EXPECT_GT(readings[0], readings[1] + 2.0);
    bank.resetAll(50.0);
    for (Celsius r : bank.readings())
        EXPECT_DOUBLE_EQ(r, 50.0);
}

TEST(Placement, CanonicalSitesLieOnTheirUnits)
{
    const Floorplan fp = buildSkylakeFloorplan();
    const auto sites = canonicalSensorSites(fp, 0);
    ASSERT_EQ(sites.size(), 7u);
    // tsens03 is the ALU sensor (the paper's best site).
    const auto &alu = fp.unit(fp.findUnit(UnitKind::IntALU, 0)).rect;
    EXPECT_TRUE(alu.contains(sites[kBestSensorIndex]));
    // All sites are on the die.
    for (const auto &p : sites) {
        EXPECT_GE(p.x, 0.0);
        EXPECT_LT(p.x, fp.dieWidth());
        EXPECT_GE(p.y, 0.0);
        EXPECT_LT(p.y, fp.dieHeight());
    }
}

TEST(Placement, KmeansRecoversSeparatedClusters)
{
    Rng rng(5);
    std::vector<Point> sites;
    // Two tight clusters far apart.
    for (int i = 0; i < 50; ++i) {
        sites.push_back({1e-3 + rng.uniform(-1e-5, 1e-5),
                         1e-3 + rng.uniform(-1e-5, 1e-5)});
        sites.push_back({6e-3 + rng.uniform(-1e-5, 1e-5),
                         6e-3 + rng.uniform(-1e-5, 1e-5)});
    }
    const auto centers = kmeansPlacement(sites, 2, rng);
    ASSERT_EQ(centers.size(), 2u);
    const bool a_low = centers[0].x < 3e-3;
    const Point &low = a_low ? centers[0] : centers[1];
    const Point &high = a_low ? centers[1] : centers[0];
    EXPECT_NEAR(low.x, 1e-3, 5e-5);
    EXPECT_NEAR(low.y, 1e-3, 5e-5);
    EXPECT_NEAR(high.x, 6e-3, 5e-5);
    EXPECT_NEAR(high.y, 6e-3, 5e-5);
}

TEST(Placement, KmeansHandlesKEqualsN)
{
    Rng rng(1);
    std::vector<Point> sites{{1e-3, 1e-3}, {2e-3, 2e-3}, {3e-3, 3e-3}};
    const auto centers = kmeansPlacement(sites, 3, rng);
    EXPECT_EQ(centers.size(), 3u);
}

TEST(PlacementDeathTest, KmeansRejectsTooFewSites)
{
    Rng rng(1);
    std::vector<Point> sites{{1e-3, 1e-3}};
    EXPECT_DEATH(kmeansPlacement(sites, 3, rng), "at least k");
}
