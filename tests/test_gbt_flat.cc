/**
 * @file
 * Differential tests for the flat GBT inference engine: FlatGBT must
 * be bit-identical to the reference GBTRegressor::predict on every
 * row, at every batch size, at any thread count, and across a
 * save/load round trip (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "ml/gbt.hh"
#include "ml/gbt_flat.hh"

using namespace boreas;

namespace
{

/** Restores the global pool to its default size on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard()
    {
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

/** y = 3*x0 - 2*x1 + noise, with two distractor features. */
Dataset
flatData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d({"x0", "x1", "junk0", "junk1"});
    for (size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(-1.0, 1.0);
        const double x1 = rng.uniform(-1.0, 1.0);
        const double j0 = rng.uniform(-1.0, 1.0);
        const double j1 = rng.uniform(-1.0, 1.0);
        const double y = 3.0 * x0 - 2.0 * x1 + rng.normal(0.0, 0.05);
        d.addRow({x0, x1, j0, j1}, y, static_cast<int>(i % 4));
    }
    return d;
}

/** The fig7-style deployed shape: 223 trees of depth 3 (Table II
 *  defaults), trained once and shared across the tests below. */
struct Fig7Model
{
    Fig7Model() : data(flatData(3000, 41))
    {
        model.train(data, GBTParams{}); // defaults = Table II
    }

    Dataset data;
    GBTRegressor model;
};

const Fig7Model &
fig7()
{
    static Fig7Model m;
    return m;
}

/** Row-major copy of a dataset's feature block. */
std::vector<double>
packRows(const Dataset &d)
{
    const size_t nf = d.numFeatures();
    std::vector<double> rows(d.numRows() * nf);
    for (size_t r = 0; r < d.numRows(); ++r)
        std::memcpy(rows.data() + r * nf, d.row(r),
                    nf * sizeof(double));
    return rows;
}

/** Bit-level equality (EXPECT_DOUBLE_EQ tolerates 4 ulps; we do not). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

TEST(FlatGBT, CompilesThePaperModelShape)
{
    const FlatGBT flat(fig7().model);
    EXPECT_EQ(flat.numTrees(), fig7().model.numTrees());
    EXPECT_EQ(flat.numFeatures(), fig7().model.numFeatures());
    EXPECT_EQ(flat.basePrediction(), fig7().model.basePrediction());
    // Depth-3 trees pad to at most 7 internal slots + 8 leaf slots.
    EXPECT_LE(flat.paddedNodes(), flat.numTrees() * 7);
    EXPECT_LE(flat.paddedLeaves(), flat.numTrees() * 8);
    EXPECT_GT(flat.flatBytes(), 0u);
}

TEST(FlatGBT, PredictOneMatchesReferenceOnEveryRow)
{
    const Fig7Model &m = fig7();
    const FlatGBT flat(m.model);
    for (size_t r = 0; r < m.data.numRows(); ++r) {
        const double *x = m.data.row(r);
        ASSERT_TRUE(sameBits(flat.predictOne(x), m.model.predict(x)))
            << "row " << r;
    }
}

TEST(FlatGBT, PredictBatchMatchesAtEveryBatchSize)
{
    const Fig7Model &m = fig7();
    const FlatGBT flat(m.model);
    const size_t nf = m.data.numFeatures();
    const std::vector<double> rows = packRows(m.data);
    const size_t n = m.data.numRows();

    std::vector<double> ref(n);
    for (size_t r = 0; r < n; ++r)
        ref[r] = m.model.predict(rows.data() + r * nf);

    for (const size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
        std::vector<double> out(n, 0.0);
        for (size_t lo = 0; lo < n; lo += batch) {
            const size_t len = std::min(batch, n - lo);
            flat.predictBatch(rows.data() + lo * nf, len,
                              out.data() + lo);
        }
        for (size_t r = 0; r < n; ++r)
            ASSERT_TRUE(sameBits(out[r], ref[r]))
                << "batch " << batch << " row " << r;
    }
}

TEST(FlatGBT, ThreadCountDoesNotChangeAnyBit)
{
    const Fig7Model &m = fig7();
    const FlatGBT flat(m.model);
    const std::vector<double> rows = packRows(m.data);
    const size_t n = m.data.numRows();

    GlobalPoolGuard guard;
    ThreadPool::resetGlobal(1);
    std::vector<double> serial(n);
    flat.predictBatch(rows.data(), n, serial.data());

    ThreadPool::resetGlobal(8);
    std::vector<double> threaded(n);
    flat.predictBatch(rows.data(), n, threaded.data());

    for (size_t r = 0; r < n; ++r)
        ASSERT_TRUE(sameBits(serial[r], threaded[r])) << "row " << r;
}

TEST(FlatGBT, PredictDatasetMatchesPredictAll)
{
    const Fig7Model &m = fig7();
    const FlatGBT flat(m.model);
    const std::vector<double> flat_out = flat.predictDataset(m.data);
    const std::vector<double> all = m.model.predictAll(m.data);
    ASSERT_EQ(flat_out.size(), all.size());
    for (size_t r = 0; r < all.size(); ++r)
        ASSERT_TRUE(sameBits(flat_out[r], all[r])) << "row " << r;
}

TEST(FlatGBT, SaveLoadFlattenIsEquivalent)
{
    const Fig7Model &m = fig7();
    std::stringstream buf;
    m.model.save(buf);
    GBTRegressor loaded;
    loaded.load(buf);

    const FlatGBT flat(loaded);
    for (size_t r = 0; r < 200; ++r) {
        const double *x = m.data.row(r);
        ASSERT_TRUE(sameBits(flat.predictOne(x), m.model.predict(x)))
            << "row " << r;
    }
}

TEST(FlatGBT, PredictBatchMatchesAtEveryTreeDepth)
{
    // The batch path unrolls depths 1-4 at compile time and loops at
    // run time beyond that; both must reproduce the reference.
    const Dataset data = flatData(400, 7);
    const size_t nf = data.numFeatures();
    const std::vector<double> rows = packRows(data);
    const size_t n = data.numRows();
    for (const int depth : {1, 2, 4, 6}) {
        GBTRegressor model;
        model.train(data,
                    GBTParams{.maxDepth = depth, .nEstimators = 12});
        const FlatGBT flat(model);
        std::vector<double> out(n, 0.0);
        flat.predictBatch(rows.data(), n, out.data());
        for (size_t r = 0; r < n; ++r) {
            ASSERT_TRUE(sameBits(out[r],
                                 model.predict(rows.data() + r * nf)))
                << "depth " << depth << " row " << r;
        }
    }
}

TEST(FlatGBT, StumpEnsembleAndEmptyBatchWork)
{
    // Degenerate shapes: depth-0 trees (gamma prunes every split) and
    // a zero-row batch must both be handled.
    Dataset d({"x"});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        d.addRow({rng.uniform()}, 7.5, 0);
    GBTRegressor model;
    model.train(d, GBTParams{.gamma = 1e6, .nEstimators = 8});

    const FlatGBT flat(model);
    EXPECT_EQ(flat.paddedNodes(), 0u); // all roots are leaves
    const double x = 0.25;
    EXPECT_TRUE(sameBits(flat.predictOne(&x), model.predict(&x)));
    flat.predictBatch(&x, 0, nullptr); // no rows: no touch, no crash
}


TEST(FlatGBTDeathTest, RejectsTrainedTreeDeeperThanPaddingLimit)
{
    // A model built in code skips tryLoad's depth bound, so the
    // compile keeps its own. Targets +-2^i, larger towards both ends
    // of x, make each split peel off the row at one end, a chain
    // deeper than the padding allows; they come in +- pairs, so the
    // base is exactly 0.
    Dataset d({"x"});
    for (int i = 0; i < 40; ++i) {
        d.addRow({static_cast<double>(i)}, std::ldexp(1.0, i), 0);
        d.addRow({-1.0 - i}, -std::ldexp(1.0, i), 0);
    }
    GBTRegressor model;
    model.train(d, GBTParams{.learningRate = 1.0,
                             .maxDepth = FlatGBT::kMaxDepth + 8,
                             .nEstimators = 1,
                             .lambda = 0.0,
                             .minChildWeight = 0.0});
    ASSERT_GT(model.trees()[0].depth(), FlatGBT::kMaxDepth);
    EXPECT_DEATH((void)FlatGBT(model), "padding limit");
}
