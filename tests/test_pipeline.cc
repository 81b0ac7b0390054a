/** @file Integration tests for the coupled simulation pipeline. */

#include <gtest/gtest.h>

#include "control/static_controllers.hh"
#include "test_util.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;
using boreas::test::program;

TEST(Pipeline, RunProducesRequestedSteps)
{
    SimulationPipeline p(fastPipelineConfig());
    const RunResult run = p.runConstantFrequency(
        *program("gamess"), 1, 4.0, 60);
    EXPECT_EQ(run.steps.size(), 60u);
    for (size_t i = 0; i < run.steps.size(); ++i) {
        EXPECT_EQ(run.steps[i].step, static_cast<int>(i));
        EXPECT_DOUBLE_EQ(run.steps[i].frequency, 4.0);
        EXPECT_DOUBLE_EQ(run.steps[i].voltage, 0.98);
        EXPECT_GT(run.steps[i].totalPower, 0.0);
        EXPECT_EQ(run.steps[i].sensorReadings.size(), 7u);
    }
}

TEST(Pipeline, WarmStartPreheatsTheDie)
{
    PipelineConfig warm_cfg = fastPipelineConfig();
    SimulationPipeline warm(warm_cfg);
    warm.start(*program("povray"), 1);
    EXPECT_GT(warm.thermalGrid().maxSiliconTemp(), kAmbient + 15.0);

    PipelineConfig cold_cfg = fastPipelineConfig();
    cold_cfg.warmStart = false;
    SimulationPipeline cold(cold_cfg);
    cold.start(*program("povray"), 1);
    EXPECT_NEAR(cold.thermalGrid().maxSiliconTemp(), kAmbient, 1e-9);
}

TEST(Pipeline, SameSeedReproducesRunExactly)
{
    SimulationPipeline p(fastPipelineConfig());
    const RunResult a = p.runConstantFrequency(
        *program("bzip2"), 42, 4.25, 48);
    const RunResult b = p.runConstantFrequency(
        *program("bzip2"), 42, 4.25, 48);
    for (size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.steps[i].severity.maxSeverity,
                         b.steps[i].severity.maxSeverity);
        EXPECT_DOUBLE_EQ(a.steps[i].totalPower, b.steps[i].totalPower);
    }
}

TEST(Pipeline, DifferentSeedsDiverge)
{
    SimulationPipeline p(fastPipelineConfig());
    const RunResult a = p.runConstantFrequency(
        *program("bzip2"), 1, 4.25, 48);
    const RunResult b = p.runConstantFrequency(
        *program("bzip2"), 2, 4.25, 48);
    bool differ = false;
    for (size_t i = 0; i < a.steps.size() && !differ; ++i)
        differ = a.steps[i].totalPower != b.steps[i].totalPower;
    EXPECT_TRUE(differ);
}

class PipelineFrequencyMonotone
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PipelineFrequencyMonotone, PeakSeverityGrowsWithFrequency)
{
    SimulationPipeline p(fastPipelineConfig());
    const auto w = program(GetParam());
    const double low =
        p.runConstantFrequency(*w, 3, 2.5, 75).peakSeverity();
    const double mid =
        p.runConstantFrequency(*w, 3, 4.0, 75).peakSeverity();
    const double high =
        p.runConstantFrequency(*w, 3, 5.0, 75).peakSeverity();
    EXPECT_LE(low, mid + 0.05);
    EXPECT_LT(mid, high);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PipelineFrequencyMonotone,
                         ::testing::Values("povray", "gromacs",
                                           "libquantum", "gamess"));

TEST(Pipeline, SensorReadingsLagTruthWithDelay)
{
    PipelineConfig cfg = fastPipelineConfig();
    cfg.sensors.delaySteps = 12;
    SimulationPipeline p(cfg);
    // Run hot so temperatures rise monotonically-ish.
    const RunResult run = p.runConstantFrequency(
        *program("povray"), 1, 5.0, 60);
    // While heating, a delayed reading must be below the true value.
    const auto &last = run.steps.back();
    EXPECT_LT(last.sensorReadings[kBestSensorIndex],
              last.sensorTrue[kBestSensorIndex]);
}

TEST(Pipeline, ZeroDelaySensorsMatchTruth)
{
    PipelineConfig cfg = fastPipelineConfig();
    cfg.sensors.delaySteps = 0;
    SimulationPipeline p(cfg);
    const RunResult run = p.runConstantFrequency(
        *program("gamess"), 1, 4.0, 30);
    const auto &rec = run.steps.back();
    for (size_t s = 0; s < rec.sensorReadings.size(); ++s)
        EXPECT_DOUBLE_EQ(rec.sensorReadings[s], rec.sensorTrue[s]);
}

TEST(Pipeline, ControllerIsConsultedEveryDecisionPeriod)
{
    SimulationPipeline p(fastPipelineConfig());
    FixedFrequencyController hold("hold", 4.0);
    const RunResult run = p.runWithController(
        *program("gamess"), 1, hold, 3.75, kTraceSteps);
    // 150 steps / 12 per decision = 12 decisions (the last partial
    // window gets no decision).
    EXPECT_EQ(run.decidedFreqs.size(), 12u);
    // First 12 steps at the initial frequency, the rest at 4.0.
    EXPECT_DOUBLE_EQ(run.steps[0].frequency, 3.75);
    EXPECT_DOUBLE_EQ(run.steps[11].frequency, 3.75);
    EXPECT_DOUBLE_EQ(run.steps[12].frequency, 4.0);
    EXPECT_DOUBLE_EQ(run.steps.back().frequency, 4.0);

    // A whole number of periods: the last step closes a window, so the
    // controller is consulted after it too (144 / 12 = 12 decisions).
    const RunResult whole = p.runWithController(
        *program("gamess"), 1, hold, 3.75, 12 * kStepsPerDecision);
    EXPECT_EQ(whole.steps.size(), 144u);
    EXPECT_EQ(whole.decidedFreqs.size(), 12u);
}

TEST(Pipeline, ScheduleIsFollowedPerDecisionWindow)
{
    SimulationPipeline p(fastPipelineConfig());
    const std::vector<GHz> schedule{3.0, 4.0, 2.5};
    const RunResult run = p.runWithSchedule(
        *program("gamess"), 1, schedule, 48);
    EXPECT_DOUBLE_EQ(run.steps[0].frequency, 3.0);
    EXPECT_DOUBLE_EQ(run.steps[11].frequency, 3.0);
    EXPECT_DOUBLE_EQ(run.steps[12].frequency, 4.0);
    EXPECT_DOUBLE_EQ(run.steps[24].frequency, 2.5);
    // Last entry persists beyond the schedule.
    EXPECT_DOUBLE_EQ(run.steps[47].frequency, 2.5);
}

TEST(Pipeline, RunResultAggregates)
{
    SimulationPipeline p(fastPipelineConfig());
    const std::vector<GHz> schedule{3.0, 4.0};
    const RunResult run = p.runWithSchedule(
        *program("gamess"), 1, schedule, 24);
    EXPECT_NEAR(run.averageFrequency(), 3.5, 1e-9);
    EXPECT_GE(run.peakSeverity(), 0.0);
    EXPECT_GE(run.incursionSteps(), 0);
}

TEST(Pipeline, HotterWorkloadsRunHotter)
{
    // povray (design oracle 3.75) must out-heat cactusADM (4.75) at the
    // same frequency — the workload differentiation the whole paper
    // rests on.
    SimulationPipeline p(fastPipelineConfig());
    const double hot = p.runConstantFrequency(
        *program("povray"), 1, 4.5, 75).peakSeverity();
    const double cool = p.runConstantFrequency(
        *program("cactusADM"), 1, 4.5, 75).peakSeverity();
    EXPECT_GT(hot, cool + 0.1);
}

TEST(PipelineDeathTest, StepBeforeStartPanics)
{
    SimulationPipeline p(fastPipelineConfig());
    EXPECT_DEATH(p.step(4.0), "before start");
}
