/**
 * @file
 * FlatGBT: the batched, flattened inference engine compiled from a
 * trained GBTRegressor (DESIGN.md §12, ROADMAP item 3).
 *
 * The training-side GBTTree stores one 40-byte GBTNode per node with
 * explicit left/right child links; a prediction pointer-chases those
 * links tree by tree, one data-dependent branch per level. FlatGBT
 * recompiles the ensemble into per-ensemble contiguous
 * structure-of-arrays storage laid out for serving:
 *
 *   - every tree is padded to a perfect binary tree of its own depth,
 *     so children are pure node-index arithmetic (left = 2k+1,
 *     right = 2k+2) and the descent is branchless;
 *   - each internal slot holds its split feature and the exact double
 *     threshold the reference tree compares against, so no prediction
 *     can change;
 *   - leaf values live in one contiguous array per ensemble.
 *
 * A FlatGBT is compiled by its constructor and immutable after it; it
 * is the one serving path (the controller's per-period queries,
 * GBTRegressor::predictAll, the throughput and latency benches).
 *
 * predictBatch() fans row ranges over ThreadPool::global().parallelFor
 * and walks rows through each tree in blocks of eight (independent
 * descents keep the pipeline full; depths 1-4 are unrolled at compile
 * time), with a scalar tail for the leftover rows. Every row's
 * accumulation order is identical to GBTRegressor::predict — base +
 * learningRate * leaf, in tree order — so results are bit-identical at
 * every batch size and thread count.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ml/dataset.hh"
#include "ml/gbt.hh"

namespace boreas
{

/** Flattened SoA inference engine for a trained GBT ensemble. */
class FlatGBT
{
  public:
    /** Trees deeper than this would blow up the perfect-tree padding
     *  (2^depth leaf slots per tree); the constructor refuses them. */
    static constexpr int kMaxDepth = 20;

    /** Compile a trained ensemble. Validates the model structure
     *  (feature indices, forward-pointing children, finite values,
     *  depth within kMaxDepth) and panics on a malformed model. */
    explicit FlatGBT(const GBTRegressor &model);

    size_t numTrees() const { return treeDepth_.size(); }
    size_t numFeatures() const { return numFeatures_; }
    double basePrediction() const { return base_; }

    /** Padded internal-node slots across the ensemble. */
    size_t paddedNodes() const { return feature_.size(); }
    /** Padded leaf slots across the ensemble. */
    size_t paddedLeaves() const { return leaf_.size(); }
    /** Resident footprint of the SoA arrays, in bytes. */
    size_t flatBytes() const;

    /** Predict one row (pointer to numFeatures() doubles);
     *  bit-identical to GBTRegressor::predict. */
    double predictOne(const double *x) const;

    /**
     * Predict `n` rows (row-major, numFeatures() doubles each) into
     * out[0..n). Fans row ranges over the global thread pool; every
     * out[r] depends only on row r, so results are bit-identical at
     * any thread count.
     */
    void predictBatch(const double *rows, size_t n, double *out) const;

    /** predictBatch over a dataset (must share the feature order). */
    std::vector<double> predictDataset(const Dataset &data) const;

  private:
    void predictRange(const double *rows, int64_t lo, int64_t hi,
                      double *out) const;

    size_t numFeatures_;
    double base_;
    double learningRate_;

    // Per-tree geometry: depth, and offsets into the node/leaf arrays.
    std::vector<int32_t> treeDepth_;
    std::vector<int32_t> nodeOffset_;
    std::vector<int32_t> leafOffset_;

    // Internal-node SoA in per-tree heap order (slot k's children are
    // 2k+1 / 2k+2); padding slots split on feature 0 at +inf.
    std::vector<int32_t> feature_;
    std::vector<double> thr_;

    std::vector<double> leaf_;
};

} // namespace boreas
