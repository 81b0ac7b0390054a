/** @file Calibration contract tests at the default (64x64) resolution:
 *  the Fig. 2 safe/unsafe boundaries the whole evaluation rests on.
 *  These use the same multi-seed max statistic as the calibration. */

#include <gtest/gtest.h>

#include <string>

#include "boreas/pipeline.hh"
#include "test_util.hh"
#include "workload/spec2006.hh"

using namespace boreas;

namespace
{

double
multiSeedPeak(SimulationPipeline &pipeline, const std::string &name,
              GHz freq)
{
    const auto source = boreas::test::program(name);
    double peak = 0.0;
    for (uint64_t s : {0ULL, 97ULL, 194ULL}) {
        peak = std::max(peak,
                        pipeline.runConstantFrequency(
                            *source, 2023 + source->groupId() + s, freq)
                            .peakSeverity());
    }
    return peak;
}

} // namespace

class CalibrationBoundary : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CalibrationBoundary, OracleIsSafeAndNextStepIsNot)
{
    SimulationPipeline pipeline;
    const std::string name = GetParam();
    const GHz oracle = designOracleFrequency(name);
    EXPECT_LT(multiSeedPeak(pipeline, name, oracle), 1.0) << name;
    EXPECT_GE(multiSeedPeak(pipeline, name,
                            pipeline.vfTable().stepUp(oracle)), 1.0)
        << name;
}

// One workload per oracle tier: the global-limit pair, a 4.0/4.25/4.5
// representative each, and the 4.75 GHz tail.
INSTANTIATE_TEST_SUITE_P(Tiers, CalibrationBoundary,
                         ::testing::Values("povray", "hmmer", "gamess",
                                           "bzip2", "cactusADM"));

TEST(CalibrationBoundary, BaselineSafeForHottestWorkload)
{
    // 3.75 GHz must be globally safe (Sec. III-C): check the two
    // workloads whose oracle IS the baseline.
    SimulationPipeline pipeline;
    EXPECT_LT(multiSeedPeak(pipeline, "povray", kBaselineFrequency),
              1.0);
    EXPECT_LT(multiSeedPeak(pipeline, "namd", kBaselineFrequency),
              1.0);
}
