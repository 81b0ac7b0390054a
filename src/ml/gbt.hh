/**
 * @file
 * Gradient Boosted Trees regression, XGBoost-style (Sec. IV-A).
 *
 * Squared-error objective: per boosting round the gradient of row i is
 * (pred_i - y_i) and the hessian is 1. Trees are grown level-wise to
 * max_depth using histogram-based split finding (each feature
 * quantile-binned into at most 256 bins, so every code is one byte)
 * and the XGBoost gain formula
 *
 *   gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda)
 *                - (GL+GR)^2/(HL+HR+lambda) ] - gamma
 *
 * with leaf weight -G/(H+lambda). The split search evaluates the gain
 * on each round's gradients in fixed point, from exact integer sums,
 * so round-off never picks a split (DESIGN.md §6); leaf weights sum
 * the gradients in double. alpha (the paper's name for the
 * learning rate), gamma, max_depth and n_estimators match Table II.
 * Each round's running predictions are settled from the grower's own
 * row partition: a node that ends as a leaf adds alpha * weight to the
 * rows it holds, so training never walks a tree it has just grown.
 *
 * The class also exposes what the paper's overhead analysis needs
 * (Sec. V-E): gain-based feature importance, serialized model size in
 * bytes assuming full trees of 32-bit values, and the comparison/add
 * operation count of one serial prediction.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ml/dataset.hh"

namespace boreas
{

/** Hyperparameters (defaults = the paper's Table II model). */
struct GBTParams
{
    double learningRate = 0.3;  ///< "alpha" in Table II
    double gamma = 0.0;         ///< min loss reduction to split
    /** At most FlatGBT::kMaxDepth, so every trained tree serves. */
    int maxDepth = 3;
    int nEstimators = 223;
    double lambda = 1.0;        ///< L2 regularization on leaf weights, >= 0
    double minChildWeight = 1.0;///< min hessian sum per child
};

/** One node of a regression tree (leaf iff feature < 0). */
struct GBTNode
{
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;   ///< leaf weight
    double gain = 0.0;    ///< split gain (importance accounting)
};

/** One regression tree. */
struct GBTTree
{
    std::vector<GBTNode> nodes;

    double predict(const double *x) const;
    int depth() const;
};

/** The boosted ensemble. */
class GBTRegressor
{
  public:
    GBTRegressor() = default;

    /** Fit on a dataset. Re-entrant: discards any previous model. */
    void train(const Dataset &data, const GBTParams &params);

    bool trained() const { return !trees_.empty(); }
    const GBTParams &params() const { return params_; }
    size_t numTrees() const { return trees_.size(); }
    double basePrediction() const { return base_; }
    const std::vector<GBTTree> &trees() const { return trees_; }

    /**
     * Predict one row (pointer to numFeatures() doubles) by walking
     * the explicit child links. This is the reference path the flat
     * engine (ml/gbt_flat.hh) is differential-tested against; batched
     * and hot-loop callers should compile a FlatGBT instead.
     */
    double predict(const double *x) const;
    double predict(const std::vector<double> &x) const;

    /** Predict every row of a dataset (must share the feature order).
     *  Routed through a FlatGBT compiled on the fly. */
    std::vector<double> predictAll(const Dataset &data) const;

    /** Mean squared error on a dataset. */
    double mse(const Dataset &data) const;

    /**
     * Normalized gain per feature (sums to 1): the importance measure
     * behind Table IV and the feature-selection study (Sec. IV-B).
     */
    std::vector<double> featureImportance() const;

    size_t numFeatures() const { return numFeatures_; }

    /**
     * Model weight footprint in bytes, counting full trees of depth
     * max_depth with a 32-bit value per node (the paper's Sec. V-E
     * accounting, which yields < 14 KB for the 223x depth-3 model).
     */
    size_t modelBytes() const;

    /** Comparisons for one worst-case serial prediction (trees*depth). */
    size_t comparisonsPerPrediction() const;

    /** Additions for one prediction (trees - 1, plus the base). */
    size_t additionsPerPrediction() const;

    /** Serialize to a simple line-oriented text format. */
    void save(std::ostream &os) const;

    /**
     * Deserialize without aborting. Counts and node indices are
     * validated before use, so a corrupt stream cannot trigger a
     * giant allocation or yield a model whose predict() reads out of
     * bounds, and no tree may be deeper than the flat serving
     * engine's padding (FlatGBT::kMaxDepth), so every loaded model
     * compiles. On malformed input returns false, sets *error (if
     * given) and leaves the model unchanged.
     */
    bool tryLoad(std::istream &is, std::string *error = nullptr);

    /** Deserialize; panics with tryLoad's message on malformed
     *  input. */
    void load(std::istream &is);

  private:
    GBTParams params_;
    double base_ = 0.0;
    size_t numFeatures_ = 0;
    std::vector<GBTTree> trees_;
};

} // namespace boreas
