/** @file Tests for the Sec. III characterization analyses. */

#include <gtest/gtest.h>

#include <cmath>

#include "boreas/analysis.hh"
#include "test_util.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;

namespace
{

SourceSet
pick(std::initializer_list<const char *> names)
{
    SourceSet out;
    for (const char *n : names)
        out.add(boreas::test::program(n));
    return out;
}

} // namespace

TEST(SeveritySweep, ShapeAndMonotonicity)
{
    SimulationPipeline p(fastPipelineConfig());
    const std::vector<GHz> freqs{3.0, 4.0, 5.0};
    // Two suite programs plus a two-core co-scheduled mix, so the
    // multi-core source path runs through the sweep too.
    const std::string mix = "mix:mcf+cg.B@stagger=0.8e-3";
    SourceSet set = pick({"povray", "cactusADM"});
    set.add(makeWorkloadSource(mix));
    const SeveritySweep sweep =
        severitySweep(p, set.sources, freqs, 42, 75);
    ASSERT_EQ(sweep.workloads.size(), 3u);
    ASSERT_EQ(sweep.peak.size(), 3u);
    ASSERT_EQ(sweep.peak[0].size(), 3u);
    // Severity grows with frequency for both suite programs.
    for (size_t w = 0; w < 2; ++w) {
        EXPECT_LE(sweep.peak[w][0], sweep.peak[w][1] + 0.05);
        EXPECT_LT(sweep.peak[w][1], sweep.peak[w][2]);
    }
    EXPECT_EQ(sweep.workloadIndex("cactusADM"), 1);
    EXPECT_EQ(sweep.workloadIndex("nope"), -1);
    // The mix row is labeled with its source name and holds a real
    // peak at every frequency.
    EXPECT_EQ(sweep.workloads[2], mix);
    for (double peak : sweep.peak[2]) {
        EXPECT_TRUE(std::isfinite(peak));
        EXPECT_GT(peak, 0.0);
    }
}

TEST(SeveritySweep, OracleAndGlobalLimitLogic)
{
    // Synthetic sweep: oracle picks the highest sub-1.0 frequency and
    // the global limit is the min across workloads.
    SeveritySweep sweep;
    sweep.workloads = {"a", "b"};
    sweep.freqs = {3.0, 4.0, 5.0};
    sweep.peak = {{0.5, 0.9, 1.2}, {0.4, 1.1, 1.5}};
    EXPECT_DOUBLE_EQ(sweep.oracleFrequency(0), 4.0);
    EXPECT_DOUBLE_EQ(sweep.oracleFrequency(1), 3.0);
    EXPECT_DOUBLE_EQ(sweep.globalLimit(), 3.0);
}

TEST(SeveritySweep, NothingSafeFallsBackToLowest)
{
    SeveritySweep sweep;
    sweep.workloads = {"x"};
    sweep.freqs = {3.0, 4.0};
    sweep.peak = {{1.3, 1.8}};
    EXPECT_DOUBLE_EQ(sweep.oracleFrequency(0), 3.0);
}

TEST(CriticalTemps, UnsafePointsHaveFiniteCriticalTemp)
{
    SimulationPipeline p(fastPipelineConfig());
    const std::vector<GHz> freqs{3.75, 5.0};
    const CriticalTempStudy study = criticalTempStudy(
        p, pick({"povray"}).sources, freqs, kBestSensorIndex, 42,
        75);
    ASSERT_EQ(study.crit.size(), 1u);
    // povray at 5.0 GHz is deep in unsafe territory: a critical
    // temperature must have been observed.
    EXPECT_LT(study.crit[0][1], kNoCriticalTemp);
    EXPECT_GT(study.crit[0][1], kAmbient);
}

TEST(CriticalTemps, SafeWorkloadHasNoCriticalTemp)
{
    SimulationPipeline p(fastPipelineConfig());
    const std::vector<GHz> freqs{2.0};
    const CriticalTempStudy study = criticalTempStudy(
        p, pick({"cactusADM"}).sources, freqs, kBestSensorIndex, 42,
        75);
    EXPECT_EQ(study.crit[0][0], kNoCriticalTemp);
}

TEST(CriticalTemps, GlobalTableTakesMinimum)
{
    CriticalTempStudy study;
    study.workloads = {"a", "b"};
    study.freqs = {3.0, 4.0};
    study.crit = {{kNoCriticalTemp, 80.0}, {90.0, 70.0}};
    const CriticalTempTable table = study.globalTable();
    ASSERT_EQ(table.criticalTemp.size(), 2u);
    EXPECT_DOUBLE_EQ(table.criticalTemp[0], 90.0);
    EXPECT_DOUBLE_EQ(table.criticalTemp[1], 70.0);
}

TEST(CriticalTemps, LargerDelayLowersCriticalTemp)
{
    // With a longer sensor delay, the reading at the moment severity
    // crosses 1.0 is older (cooler while heating), so the observed
    // critical temperature drops — the paper's gromacs effect.
    PipelineConfig fast_sensor = fastPipelineConfig();
    fast_sensor.sensors.delaySteps = 0;
    PipelineConfig slow_sensor = fastPipelineConfig();
    slow_sensor.sensors.delaySteps = 12;

    const std::vector<GHz> freqs{5.0};
    SimulationPipeline p_fast(fast_sensor);
    SimulationPipeline p_slow(slow_sensor);
    const auto study_fast = criticalTempStudy(
        p_fast, pick({"gromacs"}).sources, freqs, kBestSensorIndex,
        42, 150);
    const auto study_slow = criticalTempStudy(
        p_slow, pick({"gromacs"}).sources, freqs, kBestSensorIndex,
        42, 150);
    ASSERT_LT(study_fast.crit[0][0], kNoCriticalTemp);
    ASSERT_LT(study_slow.crit[0][0], kNoCriticalTemp);
    EXPECT_LT(study_slow.crit[0][0], study_fast.crit[0][0]);
}
