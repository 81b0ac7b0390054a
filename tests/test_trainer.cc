/** @file Integration tests: training Boreas end-to-end (small scale). */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "boreas/trainer.hh"
#include "control/boreas_controller.hh"
#include "control/thermal_controller.hh"
#include "boreas/analysis.hh"
#include "ml/feature_schema.hh"
#include "test_util.hh"
#include "workload/spec2006.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;
using boreas::test::modelDigest;
using boreas::test::program;
using boreas::test::tinyTrainerConfig;

namespace
{

/** Train once per test binary; training is the expensive part. The
 *  78-attribute model of the importance study is fitted here, from the
 *  bundle's full-schema dataset, as table4_feature_importance does. */
struct Trainer : public ::testing::Test
{
    static void
    SetUpTestSuite()
    {
        pipeline = std::make_unique<SimulationPipeline>(
            fastPipelineConfig());
        const SourceSet train_set = wrapSpecs({
            &findWorkload("povray"), &findWorkload("gromacs"),
            &findWorkload("sjeng"), &findWorkload("libquantum"),
            &findWorkload("mcf"), &findWorkload("namd"),
        });
        trained = std::make_unique<TrainedBoreas>(
            trainBoreas(*pipeline, train_set.sources,
                        tinyTrainerConfig()));
        studyModel = std::make_unique<GBTRegressor>();
        studyModel->train(trained->fullTrainData, tinyTrainerConfig().gbt);
    }

    static void
    TearDownTestSuite()
    {
        studyModel.reset();
        trained.reset();
        pipeline.reset();
    }

    static std::unique_ptr<SimulationPipeline> pipeline;
    static std::unique_ptr<TrainedBoreas> trained;
    static std::unique_ptr<GBTRegressor> studyModel;
};

std::unique_ptr<SimulationPipeline> Trainer::pipeline;
std::unique_ptr<TrainedBoreas> Trainer::trained;
std::unique_ptr<GBTRegressor> Trainer::studyModel;

} // namespace

TEST_F(Trainer, ModelsAreTrained)
{
    EXPECT_TRUE(trained->model.trained());
    EXPECT_TRUE(studyModel->trained());
    EXPECT_TRUE(trained->phaseModel.trained());
    EXPECT_EQ(studyModel->numFeatures(), kNumFullFeatures);
    EXPECT_EQ(trained->model.numFeatures(),
              deployedFeatureNames().size());
}

TEST_F(Trainer, BundleGoldenDigests)
{
    // Pinned golden values of the fixture's deployed model and of its
    // 78-attribute study model. The two fits are independent, so
    // neither digest may move when the other fit moves or goes away.
    EXPECT_EQ(modelDigest(trained->model), 0xf1d416f29ba0fc04ULL);
    EXPECT_EQ(modelDigest(*studyModel), 0xe4e43c5de053d282ULL);
}

TEST_F(Trainer, TrainMseIsAccurate)
{
    // The paper reports MSE ~0.0094; at test scale we accept anything
    // clearly predictive.
    EXPECT_LT(trained->model.mse(trained->trainData), 0.02);
}

TEST_F(Trainer, TemperatureDominatesImportance)
{
    // Table IV: temperature_sensor_data carries by far the most gain.
    const auto gains = studyModel->featureImportance();
    const double temp_gain = gains[kTempFeatureIndex];
    for (size_t i = 0; i < gains.size(); ++i) {
        if (i == kTempFeatureIndex)
            continue;
        EXPECT_GT(temp_gain, gains[i]) << fullFeatureSchema()[i];
    }
    EXPECT_GT(temp_gain, 0.3);
}

TEST_F(Trainer, SelectTopFeaturesAscendingAndContainsTemp)
{
    const auto top = selectTopFeatures(*studyModel, 20);
    ASSERT_EQ(top.size(), 20u);
    // Ascending importance: the last entry must be the temperature.
    EXPECT_EQ(top.back(), "temperature_sensor_data");
    const auto gains = studyModel->featureImportance();
    const auto idx = featureIndicesOf(top);
    for (size_t i = 1; i < idx.size(); ++i)
        EXPECT_LE(gains[idx[i - 1]], gains[idx[i]]);
}

TEST_F(Trainer, GeneralizesToUnseenWorkload)
{
    // Build an evaluation set from a *test* workload and check the
    // deployed model predicts severity with useful accuracy.
    DatasetConfig eval_cfg = tinyTrainerConfig().data;
    const SourceSet test_wl = wrapSpecs({
        &findWorkload("gamess")});
    const BuiltData eval = buildTrainingData(*pipeline, test_wl.sources,
                                             eval_cfg);
    const double mse = evaluateMse(trained->model,
                                   trained->featureNames,
                                   eval.severity);
    EXPECT_LT(mse, 0.05);
}

TEST_F(Trainer, Ml05ControlsUnseenWorkloadEffectively)
{
    // At unit-test scale (coarse grid, reduced data) we assert the
    // structural properties rather than the full-scale zero-incursion
    // result (which bench/fig7_avg_frequency reproduces): the
    // controller must find headroom above the static baseline while
    // keeping overshoot bounded — it must not run away to the top of
    // the VF range the way an uncontrolled run does.
    BoreasController ml05("ML05", &trained->model,
                          trained->featureNames, 0.05,
                          kBestSensorIndex);
    const RunResult run = pipeline->runWithController(
        *program("bzip2"), 5, ml05, kBaselineFrequency);
    EXPECT_GE(run.averageFrequency(), kBaselineFrequency - 1e-9);
    EXPECT_LT(run.peakSeverity(), 1.5);

    // Reference: pinned at 5.0 GHz the same workload is deep in unsafe
    // territory for much of the trace.
    const RunResult wild = pipeline->runConstantFrequency(
        *program("bzip2"), 5, kMaxFrequency);
    EXPECT_LT(run.peakSeverity(), wild.peakSeverity());
    EXPECT_LT(run.incursionSteps(), wild.incursionSteps());
}

TEST_F(Trainer, GuardbandTradesFrequencyForSafety)
{
    BoreasController ml00("ML00", &trained->model,
                          trained->featureNames, 0.0,
                          kBestSensorIndex);
    BoreasController ml10("ML10", &trained->model,
                          trained->featureNames, 0.10,
                          kBestSensorIndex);
    const RunResult run00 = pipeline->runWithController(
        *program("h264ref"), 5, ml00, kBaselineFrequency);
    const RunResult run10 = pipeline->runWithController(
        *program("h264ref"), 5, ml10, kBaselineFrequency);
    EXPECT_GE(run00.averageFrequency(),
              run10.averageFrequency() - 1e-9);
    // The conservative model stays clear of the line.
    EXPECT_LT(run10.peakSeverity(), 1.0);
}

TEST_F(Trainer, ThermalControllerFromStudyIsSafe)
{
    // Derive the TH-00 table from the training workloads, then run a
    // test workload closed-loop.
    const SourceSet train_set = wrapSpecs({
        &findWorkload("povray"), &findWorkload("gromacs"),
        &findWorkload("sjeng"),
    });
    const CriticalTempStudy study = criticalTempStudy(
        *pipeline, train_set.sources, pipeline->vfTable().frequencies(),
        kBestSensorIndex, 42, 75);
    ThermalThresholdController th00("TH-00", study.globalTable(), 0.0,
                                    kBestSensorIndex);
    const RunResult run = pipeline->runWithController(
        *program("gamess"), 5, th00, kBaselineFrequency);
    EXPECT_EQ(run.incursionSteps(), 0);
}
