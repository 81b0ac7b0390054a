/** @file Unit tests for the gradient-boosted-tree regressor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "ml/gbt.hh"
#include "test_util.hh"

using namespace boreas;
using boreas::test::modelDigest;

namespace
{

/** y = 3*x0 - 2*x1 + noise, with two distractor features. */
Dataset
linearData(size_t n, double noise_sigma, uint64_t seed)
{
    Rng rng(seed);
    Dataset d({"x0", "x1", "junk0", "junk1"});
    for (size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(-1.0, 1.0);
        const double x1 = rng.uniform(-1.0, 1.0);
        const double j0 = rng.uniform(-1.0, 1.0);
        const double j1 = rng.uniform(-1.0, 1.0);
        const double y = 3.0 * x0 - 2.0 * x1 +
            rng.normal(0.0, noise_sigma);
        d.addRow({x0, x1, j0, j1}, y, static_cast<int>(i % 4));
    }
    return d;
}

/** y = step(x0 > 0.3), pure single-feature signal. */
Dataset
stepData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d({"x0", "x1"});
    for (size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(0.0, 1.0);
        const double x1 = rng.uniform(0.0, 1.0);
        d.addRow({x0, x1}, x0 > 0.3 ? 1.0 : 0.0,
                 static_cast<int>(i % 3));
    }
    return d;
}

/** Integer-valued features: few distinct values, so every row sits
 *  exactly on a bin cut and each split meets a wall of ties. */
Dataset
tieData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d({"a", "b", "c"});
    for (size_t i = 0; i < n; ++i) {
        const double a = std::round(rng.uniform(0.0, 9.0));
        const double b = std::round(rng.uniform(-3.0, 3.0));
        const double c = std::round(rng.uniform(0.0, 40.0));
        const double y = a * b + 0.1 * c + rng.normal(0.0, 0.5);
        d.addRow({a, b, c}, y, static_cast<int>(i % 4));
    }
    return d;
}

} // namespace

TEST(GBT, TrainedModelGoldenDigest)
{
    // Pinned golden values: any change to binning, split finding,
    // partitioning, leaf weights or the per-round prediction update
    // moves them. Update only for a deliberate change of the model.
    GBTRegressor paper;
    paper.train(linearData(1000, 0.1, 31), GBTParams{}); // Table II
    EXPECT_EQ(modelDigest(paper), 0xc5c3a8269e2fc28fULL);

    // Deep trees on tied integer features, with a gamma that prunes
    // some splits and a minChildWeight that stops some nodes: leaves
    // end at the depth limit, at the weight limit and at the gain
    // floor, and many rows sit exactly on their node's threshold.
    GBTRegressor ties;
    ties.train(tieData(600, 33), GBTParams{.gamma = 0.5,
                                           .maxDepth = 6,
                                           .nEstimators = 40,
                                           .minChildWeight = 8.0});
    EXPECT_EQ(modelDigest(ties), 0xd5f474a654d1dc7bULL);
    int deepest = 0, shallowest = 64;
    for (const auto &tree : ties.trees()) {
        deepest = std::max(deepest, tree.depth());
        shallowest = std::min(shallowest, tree.depth());
    }
    EXPECT_EQ(deepest, 6);
    EXPECT_LT(shallowest, 6);

    // minChildWeight = 0 lets a split whose right side is empty win on
    // rounding alone (gl, summed bin by bin, differs from the row-order
    // gsum); its partition then leaves every row on one side and the
    // node ends as a leaf after the partition.
    GBTRegressor degenerate;
    degenerate.train(tieData(600, 33), GBTParams{.maxDepth = 8,
                                                 .nEstimators = 40,
                                                 .minChildWeight = 0.0});
    EXPECT_EQ(modelDigest(degenerate), 0xf29b50629552c736ULL);
}

TEST(GBT, BeatsTheMeanOnLinearData)
{
    const Dataset train = linearData(2000, 0.05, 1);
    const Dataset test = linearData(500, 0.05, 2);
    GBTParams params;
    params.nEstimators = 120;
    GBTRegressor model;
    model.train(train, params);

    // Baseline: predicting the mean.
    double mean_mse = 0.0;
    const double mean = test.targetMean();
    for (size_t r = 0; r < test.numRows(); ++r)
        mean_mse += (test.y(r) - mean) * (test.y(r) - mean);
    mean_mse /= test.numRows();

    EXPECT_LT(model.mse(test), 0.1 * mean_mse);
}

TEST(GBT, LearnsStepFunctionNearlyExactly)
{
    const Dataset train = stepData(2000, 3);
    GBTParams params;
    params.nEstimators = 50;
    GBTRegressor model;
    model.train(train, params);
    EXPECT_LT(model.mse(train), 1e-3);
    EXPECT_NEAR(model.predict({0.9, 0.5}), 1.0, 0.05);
    EXPECT_NEAR(model.predict({0.1, 0.5}), 0.0, 0.05);
}

TEST(GBT, ImportanceSumsToOneAndRanksTrueFeatures)
{
    const Dataset train = linearData(3000, 0.01, 5);
    GBTParams params;
    params.nEstimators = 100;
    GBTRegressor model;
    model.train(train, params);
    const auto imp = model.featureImportance();
    ASSERT_EQ(imp.size(), 4u);
    double total = 0.0;
    for (double g : imp)
        total += g;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // x0 (slope 3) should dominate x1 (slope 2); junk ~ 0.
    EXPECT_GT(imp[0], imp[1]);
    EXPECT_GT(imp[1], 10.0 * imp[2]);
    EXPECT_GT(imp[1], 10.0 * imp[3]);
}

TEST(GBT, DeterministicAcrossTrainings)
{
    const Dataset train = linearData(500, 0.1, 7);
    GBTParams params;
    params.nEstimators = 30;
    GBTRegressor a, b;
    a.train(train, params);
    b.train(train, params);
    for (size_t r = 0; r < 20; ++r)
        EXPECT_DOUBLE_EQ(a.predict(train.row(r)),
                         b.predict(train.row(r)));
}

TEST(GBT, MoreTreesReduceTrainingError)
{
    const Dataset train = linearData(1000, 0.05, 9);
    GBTParams small, big;
    small.nEstimators = 5;
    big.nEstimators = 100;
    GBTRegressor m_small, m_big;
    m_small.train(train, small);
    m_big.train(train, big);
    EXPECT_LT(m_big.mse(train), m_small.mse(train));
}

TEST(GBT, GammaPrunesMarginalSplits)
{
    const Dataset train = linearData(500, 0.5, 11);
    GBTParams loose, strict;
    loose.nEstimators = strict.nEstimators = 20;
    strict.gamma = 1e6; // absurd: no split is worth it
    GBTRegressor m_loose, m_strict;
    m_loose.train(train, loose);
    m_strict.train(train, strict);

    size_t strict_nodes = 0, loose_nodes = 0;
    for (const auto &t : m_strict.trees())
        strict_nodes += t.nodes.size();
    for (const auto &t : m_loose.trees())
        loose_nodes += t.nodes.size();
    EXPECT_EQ(strict_nodes, m_strict.numTrees()); // all stumps (roots)
    EXPECT_GT(loose_nodes, strict_nodes);
}

TEST(GBT, DepthLimitHolds)
{
    const Dataset train = linearData(2000, 0.01, 13);
    GBTParams params;
    params.maxDepth = 3;
    params.nEstimators = 40;
    GBTRegressor model;
    model.train(train, params);
    for (const auto &tree : model.trees())
        EXPECT_LE(tree.depth(), 3);
}

TEST(GBT, ConstantTargetPredictsConstant)
{
    Dataset d({"x"});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        d.addRow({rng.uniform()}, 7.5, 0);
    GBTRegressor model;
    model.train(d, GBTParams{.nEstimators = 10});
    EXPECT_NEAR(model.predict({0.3}), 7.5, 1e-9);
    EXPECT_NEAR(model.mse(d), 0.0, 1e-12);
}

TEST(GBT, PaperModelFootprintUnder14KB)
{
    // Sec. V-E: 223 trees, depth 3, full-tree 32-bit accounting.
    const Dataset train = linearData(300, 0.1, 17);
    GBTParams params; // defaults = Table II
    GBTRegressor model;
    model.train(train, params);
    EXPECT_EQ(model.numTrees(), 223u);
    EXPECT_EQ(model.modelBytes(), 223u * 15u * 4u);
    EXPECT_LT(model.modelBytes(), 14u * 1024u);
    // ~669 comparisons + 222 adds = ~1000 ops per prediction.
    EXPECT_EQ(model.comparisonsPerPrediction(), 669u);
    EXPECT_EQ(model.additionsPerPrediction(), 222u);
    const size_t ops = model.comparisonsPerPrediction() +
        model.additionsPerPrediction();
    EXPECT_GT(ops, 800u);
    EXPECT_LT(ops, 1100u);
}

TEST(GBT, SaveLoadRoundTripPredictsIdentically)
{
    const Dataset train = linearData(500, 0.1, 19);
    GBTRegressor model;
    model.train(train, GBTParams{.nEstimators = 25});

    std::stringstream buf;
    model.save(buf);
    GBTRegressor loaded;
    loaded.load(buf);

    EXPECT_EQ(loaded.numTrees(), model.numTrees());
    EXPECT_EQ(loaded.numFeatures(), model.numFeatures());
    for (size_t r = 0; r < 50; ++r)
        EXPECT_DOUBLE_EQ(loaded.predict(train.row(r)),
                         model.predict(train.row(r)));
}

TEST(GBT, LoadAcceptsFileWithoutTrailingNewline)
{
    // A byte-complete model whose last token meets EOF (no trailing
    // newline) sets eofbit on the final extraction; load() must treat
    // that as benign EOF, not truncation.
    const Dataset train = linearData(300, 0.1, 27);
    GBTRegressor model;
    model.train(train, GBTParams{.nEstimators = 10});

    std::stringstream buf;
    model.save(buf);
    std::string text = buf.str();
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == ' '))
        text.pop_back();

    std::stringstream chopped(text);
    GBTRegressor loaded;
    loaded.load(chopped);
    EXPECT_EQ(loaded.numTrees(), model.numTrees());
    for (size_t r = 0; r < 50; ++r)
        EXPECT_DOUBLE_EQ(loaded.predict(train.row(r)),
                         model.predict(train.row(r)));
}

TEST(GBTDeathTest, LoadRejectsGarbage)
{
    std::stringstream buf("not-a-model 9");
    GBTRegressor model;
    EXPECT_DEATH(model.load(buf), "bad GBT model");
}

TEST(GBTDeathTest, LoadRejectsGiantTreeCount)
{
    // The count is validated before trees_.assign(): a corrupt value
    // must die cleanly instead of attempting a multi-GB allocation.
    std::stringstream buf("boreas-gbt 1\n"
                          "0.3 0 3 10 1\n"
                          "0.5 2 99999999999\n");
    GBTRegressor model;
    EXPECT_DEATH(model.load(buf), "tree count");
}

TEST(GBTDeathTest, LoadRejectsGiantNodeCount)
{
    std::stringstream buf("boreas-gbt 1\n"
                          "0.3 0 3 10 1\n"
                          "0.5 2 1\n"
                          "99999999999\n");
    GBTRegressor model;
    EXPECT_DEATH(model.load(buf), "node count");
}

TEST(GBTDeathTest, LoadRejectsFeatureOutOfRange)
{
    // Node 0 splits on feature 5 of a 2-feature model: accepted, this
    // model would read out of bounds inside the descent loop.
    std::stringstream buf("boreas-gbt 1\n"
                          "0.3 0 3 10 1\n"
                          "0.5 2 1\n"
                          "3\n"
                          "5 0.5 1 2 0 0\n"
                          "-1 0 -1 -1 1 0\n"
                          "-1 0 -1 -1 2 0\n");
    GBTRegressor model;
    EXPECT_DEATH(model.load(buf), "feature 5 outside");
}

TEST(GBTDeathTest, LoadRejectsChildIndexOutOfRange)
{
    std::stringstream buf("boreas-gbt 1\n"
                          "0.3 0 3 10 1\n"
                          "0.5 2 1\n"
                          "3\n"
                          "0 0.5 1 7 0 0\n"
                          "-1 0 -1 -1 1 0\n"
                          "-1 0 -1 -1 2 0\n");
    GBTRegressor model;
    EXPECT_DEATH(model.load(buf), "children");
}

TEST(GBTDeathTest, LoadRejectsBackwardChildLink)
{
    // A self/backward link would make the descent loop spin forever;
    // children must point strictly past their parent.
    std::stringstream buf("boreas-gbt 1\n"
                          "0.3 0 3 10 1\n"
                          "0.5 2 1\n"
                          "3\n"
                          "0 0.5 0 2 0 0\n"
                          "-1 0 -1 -1 1 0\n"
                          "-1 0 -1 -1 2 0\n");
    GBTRegressor model;
    EXPECT_DEATH(model.load(buf), "children");
}

TEST(GBTDeathTest, LoadRejectsTruncatedModel)
{
    const Dataset train = linearData(300, 0.1, 29);
    GBTRegressor model;
    model.train(train, GBTParams{.nEstimators = 10});
    std::stringstream buf;
    model.save(buf);
    const std::string text = buf.str();

    std::stringstream half(text.substr(0, text.size() / 2));
    GBTRegressor loaded;
    EXPECT_DEATH(loaded.load(half), "truncated GBT model");
}

TEST(GBTDeathTest, PredictRejectsWrongWidth)
{
    const Dataset train = stepData(200, 21);
    GBTRegressor model;
    model.train(train, GBTParams{.nEstimators = 5});
    EXPECT_DEATH(model.predict(std::vector<double>{1.0}),
                 "feature vector size");
}

class GBTLearningRate : public ::testing::TestWithParam<double>
{
};

TEST_P(GBTLearningRate, ConvergesForReasonableRates)
{
    const Dataset train = linearData(800, 0.05, 23);
    GBTParams params;
    params.learningRate = GetParam();
    params.nEstimators = 150;
    GBTRegressor model;
    model.train(train, params);
    EXPECT_LT(model.mse(train), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Rates, GBTLearningRate,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5));
