/** @file Tests for training-data generation. */

#include <gtest/gtest.h>

#include <set>

#include "boreas/dataset_builder.hh"
#include "ml/feature_schema.hh"
#include "test_util.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;

namespace
{

DatasetConfig
smallConfig()
{
    DatasetConfig cfg;
    cfg.frequencies = {3.75, 4.5};
    cfg.constSegments = 1;
    cfg.walkSegments = 1;
    cfg.traceSteps = 60;
    cfg.horizonSteps = 12; // keep the count arithmetic below simple
    return cfg;
}

} // namespace

TEST(DatasetBuilder, InstanceCountMatchesConfig)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({&findWorkload("gamess")});
    const DatasetConfig cfg = smallConfig();
    const BuiltData built = buildTrainingData(p, wl.sources, cfg);

    // Constant traces: per augment and frequency, (traceSteps -
    // horizon) instances.
    const size_t const_rows =
        cfg.intensityAugments.size() * 2 * (60 - 12);
    // Walk traces: instances at t = 11, 23, 35, 47 (t < 60-12=48).
    const size_t walk_rows = 4;
    EXPECT_EQ(built.severity.numRows(), const_rows + walk_rows);
    EXPECT_EQ(built.severity.numFeatures(), kNumFullFeatures);
}

TEST(DatasetBuilder, GroupsAreWorkloadSalts)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({
        &findWorkload("gamess"), &findWorkload("bzip2")});
    const BuiltData built = buildTrainingData(p, wl.sources, smallConfig());
    const auto groups = built.severity.distinctGroups();
    const std::set<int> expect{
        static_cast<int>(findWorkload("gamess").seedSalt),
        static_cast<int>(findWorkload("bzip2").seedSalt)};
    EXPECT_EQ(std::set<int>(groups.begin(), groups.end()), expect);
}

TEST(DatasetBuilder, FrequencyColumnMatchesTraceFrequency)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({&findWorkload("gamess")});
    DatasetConfig cfg = smallConfig();
    cfg.walkSegments = 0;
    const BuiltData built = buildTrainingData(p, wl.sources, cfg);
    std::set<double> freqs_seen;
    for (size_t r = 0; r < built.severity.numRows(); ++r)
        freqs_seen.insert(built.severity.x(r, kFreqFeatureIndex));
    EXPECT_EQ(freqs_seen, (std::set<double>{3.75, 4.5}));
}

TEST(DatasetBuilder, LabelsAreSaneSeverities)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({&findWorkload("povray")});
    const BuiltData built = buildTrainingData(p, wl.sources, smallConfig());
    for (size_t r = 0; r < built.severity.numRows(); ++r) {
        EXPECT_GE(built.severity.y(r), 0.0);
        EXPECT_LT(built.severity.y(r), 5.0);
    }
    // povray at 4.5 must show some near-critical labels.
    double max_label = 0.0;
    for (size_t r = 0; r < built.severity.numRows(); ++r)
        max_label = std::max(max_label, built.severity.y(r));
    EXPECT_GT(max_label, 0.8);
}

TEST(DatasetBuilder, TemperatureColumnIsPlausible)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({&findWorkload("gamess")});
    const BuiltData built = buildTrainingData(p, wl.sources, smallConfig());
    for (size_t r = 0; r < built.severity.numRows(); ++r) {
        const double temp = built.severity.x(r, kTempFeatureIndex);
        EXPECT_GT(temp, kAmbient - 1.0);
        EXPECT_LT(temp, 150.0);
    }
}

TEST(DatasetBuilder, PhaseSamplesShareTrajectories)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({&findWorkload("gamess")});
    const BuiltData built = buildTrainingData(p, wl.sources, smallConfig());
    EXPECT_FALSE(built.phaseSamples.empty());
    for (const auto &s : built.phaseSamples) {
        EXPECT_EQ(s.counters.size(), kNumCounters);
        EXPECT_GE(s.freqIndex, 0);
        EXPECT_LT(s.freqIndex, p.vfTable().numPoints());
        EXPECT_GT(s.tempNow, 0.0);
        EXPECT_GT(s.tempNext, 0.0);
    }
}

TEST(DatasetBuilder, DeterministicAcrossCalls)
{
    SimulationPipeline p(fastPipelineConfig());
    const SourceSet wl = wrapSpecs({&findWorkload("bzip2")});
    const BuiltData a = buildTrainingData(p, wl.sources, smallConfig());
    const BuiltData b = buildTrainingData(p, wl.sources, smallConfig());
    ASSERT_EQ(a.severity.numRows(), b.severity.numRows());
    for (size_t r = 0; r < a.severity.numRows(); r += 13) {
        EXPECT_DOUBLE_EQ(a.severity.y(r), b.severity.y(r));
        EXPECT_DOUBLE_EQ(a.severity.x(r, 0), b.severity.x(r, 0));
    }
}
