/** @file Unit tests for the gradient-boosted-tree regressor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/checked.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "ml/gbt.hh"
#include "ml/gbt_flat.hh"
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

/**
 * 21 columns of mixed cardinality: column 0 takes one distinct value
 * per row, so every one of the 256 bins (the last one-byte code, 255,
 * included) holds rows, and the target jumps inside its top bin;
 * columns 1-3 take two or three values, so rows sit in long runs of
 * one bin; the rest span small integers up to continuous values. 21
 * is not a multiple of any histogram block width.
 */
Dataset
byteCodeBoundaryData(size_t n, uint64_t seed)
{
    std::vector<std::string> names;
    for (int f = 0; f < 21; ++f)
        names.push_back("f" + std::to_string(f));
    Rng rng(seed);
    Dataset d(names);
    std::vector<double> x(21);
    for (size_t i = 0; i < n; ++i) {
        x[0] = rng.uniform(0.0, 1.0);
        x[1] = rng.uniform(0.0, 1.0) < 0.3 ? 1.0 : 0.0;
        x[2] = std::round(rng.uniform(0.0, 2.0));
        x[3] = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 4.0;
        for (int f = 4; f < 21; ++f) {
            const double v = rng.uniform(-1.0, 1.0);
            x[f] = f % 3 == 0 ? std::round(v * 4.0 * f) : v;
        }
        // The jump sits inside column 0's top bin, so the split that
        // isolates code 255 is worth taking.
        const double y = 2.0 * x[0] + x[1] - 0.5 * x[2] + 0.2 * x[3] +
            x[4] * x[5] + 0.05 * x[9] + (x[0] > 0.997 ? 3.0 : 0.0) +
            rng.normal(0.0, 0.1);
        d.addRow(x, y, static_cast<int>(i % 4));
    }
    return d;
}

/**
 * Columns that tie by construction: `a`, its exact duplicate, a
 * strictly monotone transform (the same partitions through other
 * cuts) and its negation (mirror partitions, whose double sums round
 * differently from `a`'s), and the same for a small-integer column.
 * The negations come first, so a tie that rounding resolves towards
 * `a` must not fall to the lower feature. The target carries large
 * offsets that alternate by row, so the row-order double sums of the
 * gradients differ from their exact values in the low bits.
 */
Dataset
tieResolutionData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d({"neg_a", "a", "a_dup", "a_cube", "neg_b", "b", "b_scaled",
               "c"});
    for (size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(0.0, 1.0);
        const double b = std::round(rng.uniform(0.0, 6.0));
        const double c = rng.uniform(-1.0, 1.0);
        const double offset = (i % 2 == 0 ? 1.0 : -1.0) * 1e5;
        const double y = 3.0 * a - 0.7 * b + (c > 0.2 ? 1.0 : 0.0) +
            offset + rng.normal(0.0, 0.1);
        d.addRow({-a, a, a, a * a * a + 2.0, -b, b, 1000.0 * b + 7.0, c},
                 y, static_cast<int>(i % 4));
    }
    return d;
}

/** Restores the global pool to its default size on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard()
    {
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

} // namespace

TEST(GBT, TrainedModelGoldenDigest)
{
    // Pinned golden values: any change to binning, split finding,
    // partitioning, leaf weights or the per-round prediction update
    // moves them. Update only for a deliberate change of the model.
    GBTRegressor paper;
    paper.train(linearData(1000, 0.1, 31), GBTParams{}); // Table II
    EXPECT_EQ(modelDigest(paper), 0x95f5ee214fc3be2fULL);

    // Deep trees on tied integer features, with a gamma that prunes
    // some splits and a minChildWeight that stops some nodes: leaves
    // end at the depth limit, at the weight limit and at the gain
    // floor, and many rows sit exactly on their node's threshold.
    GBTRegressor ties;
    ties.train(tieData(600, 33), GBTParams{.gamma = 0.5,
                                           .maxDepth = 6,
                                           .nEstimators = 40,
                                           .minChildWeight = 8.0});
    EXPECT_EQ(modelDigest(ties), 0xa79cd29bb5cd6479ULL);
    int deepest = 0, shallowest = 64;
    for (const auto &tree : ties.trees()) {
        deepest = std::max(deepest, tree.depth());
        shallowest = std::min(shallowest, tree.depth());
    }
    EXPECT_EQ(deepest, 6);
    EXPECT_LT(shallowest, 6);

    // minChildWeight = 0 still leaves a row on each side of a split:
    // the search reads exact row counts and skips a bin whose split
    // would empty a side, also when its score rounds above the
    // parent's. Deep trees then end where nodes run out of rows.
    GBTRegressor degenerate;
    degenerate.train(tieData(600, 33), GBTParams{.maxDepth = 8,
                                                 .nEstimators = 40,
                                                 .minChildWeight = 0.0});
    EXPECT_EQ(modelDigest(degenerate), 0x76ca59bf41179857ULL);
}

TEST(GBT, ByteCodeBoundaryGoldenDigest)
{
    // Pinned golden value, like TrainedModelGoldenDigest, on a dataset
    // that reaches the edges of the one-byte bin codes and of the
    // histogram blocks. Serial and fanned-out training must both hit
    // it.
    GlobalPoolGuard guard;
    const Dataset data = byteCodeBoundaryData(2000, 41);
    std::vector<double> col0(data.numRows());
    for (size_t r = 0; r < data.numRows(); ++r)
        col0[r] = data.x(r, 0);
    std::sort(col0.begin(), col0.end());
    ASSERT_GE(std::unique(col0.begin(), col0.end()) - col0.begin(), 300);

    const GBTParams params{.maxDepth = 4, .nEstimators = 30};
    for (const int threads : {1, 4}) {
        ThreadPool::resetGlobal(threads);
        GBTRegressor model;
        model.train(data, params);
        EXPECT_EQ(modelDigest(model), 0xcbd058d7ecf5b45aULL)
            << threads << " threads";
    }
}

TEST(GBT, TieResolutionGoldenDigest)
{
    // Pinned golden values, like TrainedModelGoldenDigest, on columns
    // that tie exactly (duplicates, monotone transforms, negations) or
    // nearly (negations cut at other quantiles). The split search
    // compares exact integer sums, so an exact tie goes to the lowest
    // feature, then the lowest bin; these digests move if anything
    // else decides it.
    GlobalPoolGuard guard;
    const Dataset data = tieResolutionData(600, 43);
    struct Case
    {
        GBTParams params;
        uint64_t digest;
    };
    const Case cases[] = {
        {GBTParams{}, 0xace8ac0a22ca49dcULL}, // Table II
        {GBTParams{.gamma = 0.5}, 0x0d30c1e4033569e6ULL},
        {GBTParams{.lambda = 0.0, .minChildWeight = 0.0},
         0xa61518568f74e246ULL},
    };
    for (const int threads : {1, 4}) {
        ThreadPool::resetGlobal(threads);
        for (const Case &c : cases) {
            GBTRegressor model;
            model.train(data, c.params);
            EXPECT_EQ(modelDigest(model), c.digest)
                << threads << " threads, gamma " << c.params.gamma
                << ", lambda " << c.params.lambda;
        }
    }
}

TEST(GBT, SplitStructureIgnoresLastBit)
{
    // A 1-ulp change of one target and a permutation of the rows move
    // the row-order double sums of the gradients in their last bits.
    // The split search reads exact sums of the fixed-point gradients,
    // where correlated columns tie exactly, so every tree keeps its
    // features, thresholds and child links.
    const Dataset data = tieResolutionData(600, 43);
    Dataset nudged({"neg_a", "a", "a_dup", "a_cube", "neg_b", "b",
                    "b_scaled", "c"});
    std::vector<double> x(data.numFeatures());
    for (size_t k = 0; k < data.numRows(); ++k) {
        const size_t r = (k * 7 + 3) % data.numRows(); // 7 is coprime
        for (size_t f = 0; f < x.size(); ++f)
            x[f] = data.x(r, f);
        const double y =
            r == 0 ? std::nextafter(data.y(r), 0.0) : data.y(r);
        nudged.addRow(x, y, data.group(r));
    }

    GBTRegressor a, b;
    a.train(data, GBTParams{});
    b.train(nudged, GBTParams{});
    ASSERT_EQ(a.numTrees(), b.numTrees());
    for (size_t t = 0; t < a.numTrees(); ++t) {
        const auto &na = a.trees()[t].nodes;
        const auto &nb = b.trees()[t].nodes;
        ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
        for (size_t i = 0; i < na.size(); ++i) {
            EXPECT_EQ(na[i].feature, nb[i].feature)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].threshold, nb[i].threshold)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].left, nb[i].left)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].right, nb[i].right)
                << "tree " << t << " node " << i;
        }
    }
}

TEST(GBT, NonFiniteTargetTrainsWithoutFixedPoint)
{
    // A NaN target makes every gradient NaN; the round's fixed-point
    // scale must refuse it rather than round NaN to an integer, and
    // the round grows a single leaf. (The checked build rejects the
    // row when it is added.)
    if (kCheckedBuild)
        GTEST_SKIP() << "checked builds reject non-finite targets";
    Dataset d = stepData(200, 21);
    d.addRow({0.5, 0.5}, std::numeric_limits<double>::quiet_NaN(), 0);
    GBTRegressor model;
    model.train(d, GBTParams{.nEstimators = 3});
    EXPECT_EQ(model.numTrees(), 3u);
    for (const auto &tree : model.trees())
        EXPECT_EQ(tree.nodes.size(), 1u);
    EXPECT_TRUE(std::isnan(model.predict({0.9, 0.5})));
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

namespace
{

/** One malformed model stream and the message tryLoad reports. */
struct MalformedModel
{
    const char *name;
    const char *text; ///< null: the first half of a saved model
    const char *message;
};

/** Names the parameter in test listings, instead of gtest's byte dump
 *  of the struct, which holds string addresses. */
void
PrintTo(const MalformedModel &model, std::ostream *os)
{
    *os << model.name;
}

/** The inputs of the GBTDeathTest.Load* tests, in their order. */
const MalformedModel kMalformedModels[] = {
    {"Garbage", "not-a-model 9", "bad GBT model"},
    {"GiantTreeCount",
     "boreas-gbt 1\n"
     "0.3 0 3 10 1\n"
     "0.5 2 99999999999\n",
     "tree count"},
    {"GiantNodeCount",
     "boreas-gbt 1\n"
     "0.3 0 3 10 1\n"
     "0.5 2 1\n"
     "99999999999\n",
     "node count"},
    {"FeatureOutOfRange",
     "boreas-gbt 1\n"
     "0.3 0 3 10 1\n"
     "0.5 2 1\n"
     "3\n"
     "5 0.5 1 2 0 0\n"
     "-1 0 -1 -1 1 0\n"
     "-1 0 -1 -1 2 0\n",
     "feature 5 outside"},
    {"ChildIndexOutOfRange",
     "boreas-gbt 1\n"
     "0.3 0 3 10 1\n"
     "0.5 2 1\n"
     "3\n"
     "0 0.5 1 7 0 0\n"
     "-1 0 -1 -1 1 0\n"
     "-1 0 -1 -1 2 0\n",
     "children"},
    {"BackwardChildLink",
     "boreas-gbt 1\n"
     "0.3 0 3 10 1\n"
     "0.5 2 1\n"
     "3\n"
     "0 0.5 0 2 0 0\n"
     "-1 0 -1 -1 1 0\n"
     "-1 0 -1 -1 2 0\n",
     "children"},
    {"TruncatedModel", nullptr, "truncated GBT model"},
};

} // namespace

class GBTTryLoad : public ::testing::TestWithParam<MalformedModel>
{
};

TEST_P(GBTTryLoad, ReportsMalformedInputWithoutAborting)
{
    // A rejected stream returns false with the message load() panics
    // with, and leaves the model it was loaded into untouched.
    GBTRegressor model;
    model.train(stepData(200, 21), GBTParams{.nEstimators = 5});
    const uint64_t before = modelDigest(model);

    std::string text;
    if (GetParam().text) {
        text = GetParam().text;
    } else {
        GBTRegressor saved;
        saved.train(linearData(300, 0.1, 29), GBTParams{.nEstimators = 10});
        std::stringstream full;
        saved.save(full);
        text = full.str().substr(0, full.str().size() / 2);
    }
    std::stringstream buf(text);
    std::string error;
    EXPECT_FALSE(model.tryLoad(buf, &error));
    EXPECT_NE(error.find(GetParam().message), std::string::npos)
        << error;
    EXPECT_EQ(modelDigest(model), before);
}

INSTANTIATE_TEST_SUITE_P(
    LoadInputs, GBTTryLoad, ::testing::ValuesIn(kMalformedModels),
    [](const ::testing::TestParamInfo<MalformedModel> &info) {
        return std::string(info.param.name);
    });

TEST(GBT, TryLoadAcceptsSavedModel)
{
    GBTRegressor model;
    model.train(linearData(300, 0.1, 27), GBTParams{.nEstimators = 10});
    std::stringstream saved;
    model.save(saved);
    GBTRegressor loaded;
    std::string error;
    EXPECT_TRUE(loaded.tryLoad(saved, &error)) << error;
    EXPECT_EQ(modelDigest(loaded), modelDigest(model));
}

TEST(GBT, TryLoadRejectsSharedChild)
{
    // Each split links both sides to the next node: every link points
    // forward, but the 36 nodes hold 2^35 root-to-leaf paths, so
    // depth() or a FlatGBT compile of the loaded model would not end.
    std::stringstream buf;
    buf << "boreas-gbt 1\n0.3 0 3 1 1\n0.5 1 1\n36\n";
    for (int i = 0; i < 35; ++i)
        buf << "0 0.5 " << i + 1 << " " << i + 1 << " 0 0\n";
    buf << "-1 0 -1 -1 1 0\n";
    GBTRegressor model;
    std::string error;
    EXPECT_FALSE(model.tryLoad(buf, &error));
    EXPECT_NE(error.find("node 1 has two parents"), std::string::npos)
        << error;
}

TEST(GBT, TryLoadRejectsTreeDeeperThanServingPadding)
{
    // The flat serving engine pads every tree to a perfect tree and
    // refuses one deeper than kMaxDepth, so tryLoad rejects it: a
    // right-leaning chain of kMaxDepth + 1 splits, each with a leaf on
    // its left.
    const int splits = FlatGBT::kMaxDepth + 1;
    std::stringstream buf;
    buf << "boreas-gbt 1\n0.3 0 3 1 1\n0.5 1 1\n"
        << 2 * splits + 1 << "\n";
    for (int i = 0; i < splits; ++i) {
        buf << "0 " << i << " " << 2 * i + 1 << " " << 2 * i + 2
            << " 0 0\n";
        buf << "-1 0 -1 -1 " << i << " 0\n";
    }
    buf << "-1 0 -1 -1 " << splits << " 0\n";
    GBTRegressor model;
    std::string error;
    EXPECT_FALSE(model.tryLoad(buf, &error));
    EXPECT_NE(error.find("tree 0 depth 21 exceeds the serving limit 20"),
              std::string::npos)
        << error;
    EXPECT_FALSE(model.trained());
}

TEST(GBTDeathTest, TrainRejectsMaxBinsAbove256)
{
    // Bin codes are one byte wide.
    GBTRegressor model;
    EXPECT_DEATH(model.train(stepData(200, 21), GBTParams{.maxBins = 257}),
                 "maxBins");
}

TEST(GBTDeathTest, TrainRejectsNegativeLambda)
{
    // The split scan needs every child's nL + lambda >= 1.
    GBTRegressor model;
    EXPECT_DEATH(model.train(stepData(200, 21), GBTParams{.lambda = -0.5}),
                 "lambda");
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
