#include "ml/gbt_flat.hh"

#include <limits>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/trace.hh"

namespace boreas
{

namespace
{

/**
 * Recursively copy the subtree rooted at `orig` into perfect-tree slot
 * `k` at `level`. A leaf reached before the padded depth becomes a
 * synthetic always-left split (threshold +inf) whose whole subtree
 * replicates the leaf value, so padding cannot change any prediction.
 */
void
fillSubtree(const GBTTree &tree, int orig, int32_t k, int level,
            int depth, int32_t *feature, double *thr, double *leaf)
{
    const GBTNode &node = tree.nodes[orig];
    if (level == depth) {
        boreas_assert(node.feature < 0,
                      "FlatGBT: internal node below measured depth");
        leaf[k - ((1 << depth) - 1)] = node.value;
        return;
    }
    if (node.feature >= 0) {
        feature[k] = node.feature;
        thr[k] = node.threshold;
        fillSubtree(tree, node.left, 2 * k + 1, level + 1, depth,
                    feature, thr, leaf);
        fillSubtree(tree, node.right, 2 * k + 2, level + 1, depth,
                    feature, thr, leaf);
    } else {
        // Padding: replicate the leaf below a vacuous split.
        feature[k] = 0;
        thr[k] = std::numeric_limits<double>::infinity();
        fillSubtree(tree, orig, 2 * k + 1, level + 1, depth, feature,
                    thr, leaf);
        fillSubtree(tree, orig, 2 * k + 2, level + 1, depth, feature,
                    thr, leaf);
    }
}

} // namespace

FlatGBT::FlatGBT(const GBTRegressor &model)
    : numFeatures_(model.numFeatures()),
      base_(model.basePrediction()),
      learningRate_(model.params().learningRate)
{
    boreas_assert(model.trained(), "FlatGBT needs a trained model");
    obs::ScopedTimer timer("gbt.flat_compile");
    const std::vector<GBTTree> &trees = model.trees();
    const size_t nt = trees.size();
    treeDepth_.resize(nt);
    nodeOffset_.resize(nt);
    leafOffset_.resize(nt);

    // Pass 1: lay out the padded geometry.
    int64_t total_nodes = 0, total_leaves = 0;
    for (size_t t = 0; t < nt; ++t) {
        const int d = trees[t].depth();
        treeDepth_[t] = d;
        nodeOffset_[t] = static_cast<int32_t>(total_nodes);
        leafOffset_[t] = static_cast<int32_t>(total_leaves);
        total_nodes += (int64_t(1) << d) - 1;
        total_leaves += int64_t(1) << d;
    }

    // Pass 2: fill the SoA arrays tree by tree.
    feature_.assign(total_nodes, 0);
    thr_.assign(total_nodes,
                std::numeric_limits<double>::infinity());
    leaf_.assign(total_leaves, 0.0);
    for (size_t t = 0; t < nt; ++t) {
        fillSubtree(trees[t], 0, 0, 0, treeDepth_[t],
                    feature_.data() + nodeOffset_[t],
                    thr_.data() + nodeOffset_[t],
                    leaf_.data() + leafOffset_[t]);
    }
}

size_t
FlatGBT::flatBytes() const
{
    return treeDepth_.size() * sizeof(int32_t) * 3 +
        feature_.size() * (sizeof(int32_t) + sizeof(double)) +
        leaf_.size() * sizeof(double);
}

double
FlatGBT::predictOne(const double *x) const
{
    double acc = base_;
    const size_t nt = treeDepth_.size();
    for (size_t t = 0; t < nt; ++t) {
        const int32_t d = treeDepth_[t];
        const int32_t *feat = feature_.data() + nodeOffset_[t];
        const double *thr = thr_.data() + nodeOffset_[t];
        int32_t k = 0;
        for (int32_t level = 0; level < d; ++level)
            k = 2 * k + 1 + (x[feat[k]] <= thr[k] ? 0 : 1);
        acc += learningRate_ * leaf_[leafOffset_[t] + k - ((1 << d) - 1)];
    }
    return acc;
}

namespace
{

constexpr int kBlock = 8;

/**
 * Leaf slot (relative to the first leaf) that each of kBlock rows
 * reaches in one perfect tree of depth d. Instantiated with D == d
 * for the common shallow depths: a compile-time trip count lets both
 * loops unroll fully, so the eight cursors stay in registers (about
 * 2x the throughput of the run-time loop). D == 0 is the run-time
 * fallback.
 */
template <int D>
inline void
descendBlock(int32_t d, const double *const *x, const int32_t *feat,
             const double *thr, int32_t *slot)
{
    const int32_t depth = D > 0 ? D : d;
    int32_t k[kBlock] = {};
#pragma GCC unroll 8
    for (int32_t level = 0; level < depth; ++level) {
#pragma GCC unroll 8
        for (int b = 0; b < kBlock; ++b) {
            const int32_t i = k[b];
            k[b] = 2 * i + 1 + (x[b][feat[i]] <= thr[i] ? 0 : 1);
        }
    }
    for (int b = 0; b < kBlock; ++b)
        slot[b] = k[b] - ((1 << depth) - 1);
}

} // namespace

void
FlatGBT::predictRange(const double *rows, int64_t lo, int64_t hi,
                      double *out) const
{
    const size_t nf = numFeatures_;
    const size_t nt = treeDepth_.size();
    int64_t r = lo;
    for (; r + kBlock <= hi; r += kBlock) {
        const double *x[kBlock];
        double acc[kBlock];
        for (int b = 0; b < kBlock; ++b) {
            x[b] = rows + static_cast<size_t>(r + b) * nf;
            acc[b] = base_;
        }
        for (size_t t = 0; t < nt; ++t) {
            const int32_t *feat = feature_.data() + nodeOffset_[t];
            const double *thr = thr_.data() + nodeOffset_[t];
            const double *leaf = leaf_.data() + leafOffset_[t];
            // Eight independent descents per level keep the loads
            // pipelined where one row's chain would stall.
            const int32_t d = treeDepth_[t];
            int32_t slot[kBlock];
            switch (d) {
            case 1: descendBlock<1>(d, x, feat, thr, slot); break;
            case 2: descendBlock<2>(d, x, feat, thr, slot); break;
            case 3: descendBlock<3>(d, x, feat, thr, slot); break;
            case 4: descendBlock<4>(d, x, feat, thr, slot); break;
            default: descendBlock<0>(d, x, feat, thr, slot); break;
            }
            for (int b = 0; b < kBlock; ++b)
                acc[b] += learningRate_ * leaf[slot[b]];
        }
        for (int b = 0; b < kBlock; ++b)
            out[r + b] = acc[b];
    }
    for (; r < hi; ++r) // scalar tail
        out[r] = predictOne(rows + static_cast<size_t>(r) * nf);
}

void
FlatGBT::predictBatch(const double *rows, size_t n, double *out) const
{
    if (n == 0)
        return;
    obs::ScopedTimer timer("gbt.flat_predict");
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(n), 1024,
        [&](int64_t lo, int64_t hi) {
            predictRange(rows, lo, hi, out);
        });
}

std::vector<double>
FlatGBT::predictDataset(const Dataset &data) const
{
    boreas_assert(data.numFeatures() == numFeatures_,
                  "dataset feature count mismatch");
    std::vector<double> out(data.numRows());
    if (!out.empty())
        predictBatch(data.row(0), data.numRows(), out.data());
    return out;
}

} // namespace boreas
