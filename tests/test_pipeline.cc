/** @file Integration tests for the coupled simulation pipeline. */

#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "control/boreas_controller.hh"
#include "control/static_controllers.hh"
#include "control/thermal_controller.hh"
#include "test_util.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;
using boreas::test::program;
using boreas::test::tinyTrainerConfig;

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

namespace
{

/** How a golden run picks its frequency. */
enum class GoldenControl
{
    Constant, ///< 4.25 GHz throughout
    TH00,     ///< ThermalThresholdController closed loop
    ML05,     ///< BoreasController trained by the tiny recipe
};

/** One row of the end-to-end golden matrix. */
struct GoldenRun
{
    const char *source; ///< registry spec; "trace" is the fixture
    GoldenControl control;
    int grid;           ///< nx = ny
    uint64_t runHash;
    uint64_t lastStateHash;
    bool warmStart = true;
};

/** The committed boreas-trace-v1 fixture (tests/data/). */
std::string
goldenSpec(const char *source)
{
    const std::string s = source;
    return s == "trace"
        ? "trace:" + std::string(BOREAS_TEST_DATA) + "/mix_mcf_cgB.trace"
        : s;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

} // namespace

TEST(Pipeline, GoldenRunHashes)
{
    // End-to-end fingerprints of 150-step runs: every counter, power,
    // sensor, severity and silicon-field bit of every step feeds the
    // runHash, so any behaviour change (or a change of the state
    // hasher itself) shows up here as a moved golden. Values hold for
    // x86-64 GCC + glibc (the core and power models call libm).
    using enum GoldenControl;
    const GoldenRun cases[] = {
        {"gamess", Constant, 64, 0x61f827c2360f1cf8, 0xc31d1d514236a82a},
        {"gamess", TH00, 64, 0x312672ecaf28eb35, 0x2030ac57d929c633},
        {"gamess", Constant, 32, 0xca4fd4b1d871ee3f, 0xe2d53e2849626891},
        {"gamess", TH00, 32, 0x15ff8af65729e396, 0x36f973ea9585f560},
        {"mix:mcf+cg.B@stagger=0.8e-3", Constant, 64,
         0x565e6466e54a616f, 0xdc45aa90a72cb529},
        {"mix:mcf+cg.B@stagger=0.8e-3", TH00, 64,
         0x3be91bd9caca45ea, 0x2e47cc65ab5ec33a},
        {"mix:mcf+cg.B@stagger=0.8e-3", Constant, 32,
         0x1eebbc347d374650, 0xb8f1484f4e40da03},
        {"mix:mcf+cg.B@stagger=0.8e-3", TH00, 32,
         0x58b1f19473ec5988, 0xd452f01ed591ae92},
        {"adversarial:corehop", Constant, 64,
         0x4eae8db791a2a92a, 0x622870542ac6d873},
        {"adversarial:corehop", TH00, 64,
         0x43fcf1db305cae29, 0xd23cb51e48256179},
        {"adversarial:corehop", Constant, 32,
         0xc884713c1106de20, 0xdab513f042a0944f},
        {"adversarial:corehop", TH00, 32,
         0xbe02306be3925e95, 0xf573ed40d3e373c6},
        {"trace", Constant, 64, 0x6d50f5c1742406c7, 0x1680a2e346fc1037},
        {"trace", TH00, 64, 0xf0c7d807deec771d, 0x216ca64f25ad4221},
        {"trace", Constant, 32, 0x288d5cc9895d1b20, 0x971b0fc33629eb33},
        {"trace", TH00, 32, 0x86fbca36ce338cbf, 0xdf5e067cdb6701ce},
        // Trained Boreas, and cold starts on the Lee (64) and dense
        // fallback (24) DCT paths.
        {"gamess", ML05, 64, 0x6f03d33329d708ea, 0x03c5fbb5bb325ac9},
        {"gamess", Constant, 64, 0xa56c99e8de1c27e1, 0xba29734bf7cc4a02,
         false},
        {"gamess", Constant, 24, 0x1a7d70797e49a13b, 0x7f8aa79a927e45be,
         false},
    };
    constexpr uint64_t kSeed = 7;
    constexpr GHz kFreq = 4.25;
    // Thresholds tighten with frequency; TH-00 moves off 4.25 GHz
    // within 150 steps on every source.
    CriticalTempTable table;
    for (int i = 0; i < VFTable().numPoints(); ++i)
        table.criticalTemp.push_back(100.0 - 3.0 * i);
    ThermalThresholdController th("TH-00", table, 0.0, kBestSensorIndex);

    for (const GoldenRun &c : cases) {
        PipelineConfig cfg;
        cfg.thermal.nx = c.grid;
        cfg.thermal.ny = c.grid;
        cfg.warmStart = c.warmStart;
        SimulationPipeline p(cfg);
        auto source = makeWorkloadSource(goldenSpec(c.source));
        std::string name = std::string(c.source) + " " +
            std::to_string(c.grid) + "x" + std::to_string(c.grid) +
            (c.warmStart ? "" : " cold");
        RunResult run;
        if (c.control == ML05) {
            // Trained on this pipeline, so the dataset build is pinned
            // along with the model and the closed loop.
            const SourceSet train = wrapSpecs(
                {&findWorkload("povray"), &findWorkload("mcf")});
            const TrainedBoreas trained =
                trainBoreas(p, train.sources, tinyTrainerConfig());
            BoreasController ml05("ML05", &trained.model,
                                  trained.featureNames, 0.05,
                                  kBestSensorIndex);
            run = p.runWithController(*source, kSeed, ml05, kFreq,
                                      kTraceSteps);
            name += " ML05";
        } else if (c.control == TH00) {
            run = p.runWithController(*source, kSeed, th, kFreq,
                                      kTraceSteps);
            name += " TH-00";
        } else {
            run = p.runConstantFrequency(*source, kSeed, kFreq,
                                         kTraceSteps);
            name += " 4.25 GHz";
        }
        ASSERT_EQ(run.steps.size(), static_cast<size_t>(kTraceSteps));
        EXPECT_EQ(hex(p.runHash()), hex(c.runHash)) << name;
        EXPECT_EQ(hex(run.steps.back().stateHash), hex(c.lastStateHash))
            << name;
    }
}
