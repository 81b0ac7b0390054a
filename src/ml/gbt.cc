#include "ml/gbt.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "common/checked.hh"
#include "common/iofmt.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "ml/gbt_flat.hh"
#include "obs/trace.hh"

namespace boreas
{

double
GBTTree::predict(const double *x) const
{
    int i = 0;
    while (nodes[i].feature >= 0) {
        i = (x[nodes[i].feature] <= nodes[i].threshold)
            ? nodes[i].left : nodes[i].right;
    }
    return nodes[i].value;
}

int
GBTTree::depth() const
{
    // Iterative depth over the explicit child links.
    int max_depth = 0;
    std::vector<std::pair<int, int>> stack{{0, 0}};
    while (!stack.empty()) {
        auto [idx, d] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, d);
        if (nodes[idx].feature >= 0) {
            stack.push_back({nodes[idx].left, d + 1});
            stack.push_back({nodes[idx].right, d + 1});
        }
    }
    return max_depth;
}

namespace
{

/** Most bins a feature can take: every bin code is one byte. */
constexpr size_t kMaxBins = 256;

/** Quantile-binned view of the training features. */
struct BinnedData
{
    size_t numRows = 0;
    size_t numFeatures = 0;
    std::vector<uint8_t> cols;              ///< feature-major codes
    std::vector<std::vector<double>> cuts;  ///< per-feature upper edges

    /** Feature f's codes, one per row. */
    const uint8_t *col(size_t f) const
    {
        return cols.data() + f * numRows;
    }
};

BinnedData
binFeatures(const Dataset &data, int max_bins)
{
    obs::ScopedTimer timer("gbt.bin");
    BinnedData b;
    b.numRows = data.numRows();
    b.numFeatures = data.numFeatures();
    b.cuts.resize(b.numFeatures);
    b.cols.resize(b.numRows * b.numFeatures);

    // Features are independent: fan the binning out over feature
    // chunks. The column/sorted scratch buffers live per chunk and are
    // reused across that chunk's features instead of reallocated.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(b.numFeatures), 1,
        [&](int64_t f_lo, int64_t f_hi) {
            std::vector<double> col(b.numRows);
            std::vector<double> sorted(b.numRows);
            for (int64_t f = f_lo; f < f_hi; ++f) {
                for (size_t r = 0; r < b.numRows; ++r)
                    col[r] = data.x(r, f);
                sorted.assign(col.begin(), col.end());
                std::sort(sorted.begin(), sorted.end());

                // Quantile cut candidates; deduplicated. The last bin
                // is implicit (> last cut).
                std::vector<double> cuts;
                for (int q = 1; q < max_bins; ++q) {
                    const size_t idx = std::min(
                        b.numRows - 1, q * b.numRows / max_bins);
                    const double v = sorted[idx];
                    if (cuts.empty() || v > cuts.back())
                        cuts.push_back(v);
                }

                uint8_t *codes = b.cols.data() + f * b.numRows;
                for (size_t r = 0; r < b.numRows; ++r) {
                    const auto it = std::lower_bound(
                        cuts.begin(), cuts.end(), col[r]);
                    codes[r] = static_cast<uint8_t>(it - cuts.begin());
                }
                b.cuts[f] = std::move(cuts);
            }
        });
    return b;
}

double
leafWeight(double g, double h, double lambda)
{
    return -g / (h + lambda);
}

double
similarity(double g, double h, double lambda)
{
    return g * g / (h + lambda);
}

/** tryLoad's failure exit: report `message` through `error`. */
bool
loadError(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

void
GBTRegressor::train(const Dataset &data, const GBTParams &params)
{
    boreas_assert(data.numRows() > 0, "empty training set");
    boreas_assert(params.maxDepth >= 1 && params.nEstimators >= 1,
                  "bad GBT params");
    boreas_assert(params.maxBins >= 2 &&
                  params.maxBins <= static_cast<int>(kMaxBins),
                  "maxBins %d outside [2, %zu]: bin codes are one byte",
                  params.maxBins, kMaxBins);
    params_ = params;
    numFeatures_ = data.numFeatures();
    trees_.clear();

    const size_t n = data.numRows();
    base_ = data.targetMean();

    const BinnedData binned = binFeatures(data, params.maxBins);

    // Split-search tables, allocated once and reused for every node of
    // every tree: feature f's bins sit at [f * kMaxBins, f * kMaxBins +
    // nbins(f)) of the gradient sums and of the row counts (every
    // row's hessian is 1). The fixed stride puts each lane of a block
    // at a constant offset from the block's base.
    const size_t nf = binned.numFeatures;
    auto nbins = [&](size_t f) { return binned.cuts[f].size() + 1; };
    std::vector<double> hist_g(nf * kMaxBins);
    std::vector<uint32_t> hist_n(nf * kMaxBins);

    // Histograms are built in blocks of at most kBlockWidth features,
    // split evenly: a block's sums and counts (18 KB) stay in L1 while
    // the node's rows stream past, and the 21-column deployed model
    // still yields four blocks to fan out.
    constexpr size_t kBlockWidth = 6;
    const size_t num_blocks = (nf + kBlockWidth - 1) / kBlockWidth;
    auto block_begin = [&](size_t blk) { return blk * nf / num_blocks; };

    // Below this many (row, feature) visits a node's histogram/scan is
    // cheaper serial than fanned out.
    constexpr size_t kMinParallelWork = 1 << 14;

    std::vector<double> pred(n, base_);
    std::vector<double> grad(n, 0.0);
    std::vector<double> gord(n); // a node's gradients in `rows` order
    std::vector<int> rows(n);

    for (int t = 0; t < params.nEstimators; ++t) {
        for (size_t i = 0; i < n; ++i)
            grad[i] = pred[i] - data.y(i);

        // Every round partitions all rows afresh from 0..n-1: the
        // histogram accumulation order follows this order.
        std::iota(rows.begin(), rows.end(), 0);

        GBTTree tree;
        // Recursive level-wise growth over index ranges of `rows`.
        struct Task
        {
            int node;
            size_t begin, end;
            int depth;
        };
        tree.nodes.push_back({});
        std::vector<Task> stack{{0, 0, rows.size(), 0}};

        // A task that ends as a leaf settles its rows: the partitions
        // above it gathered exactly the rows whose descent reaches
        // this leaf into [begin, end), so each row gets its one
        // pred += learningRate * leaf of the round without walking
        // the tree.
        auto settle = [&](const Task &task, double leaf) {
            const double step = params.learningRate * leaf;
            for (size_t k = task.begin; k < task.end; ++k)
                pred[rows[k]] += step;
        };

        while (!stack.empty()) {
            const Task task = stack.back();
            stack.pop_back();

            double gsum = 0.0;
            const double hsum =
                static_cast<double>(task.end - task.begin);
            for (size_t k = task.begin; k < task.end; ++k)
                gsum += grad[rows[k]];

            const double leaf = leafWeight(gsum, hsum, params.lambda);
            tree.nodes[task.node].value = leaf;

            if (task.depth >= params.maxDepth ||
                hsum < 2.0 * params.minChildWeight) {
                settle(task, leaf);
                continue; // stays a leaf
            }

            // Histograms per feature block. A block zeroes its own
            // bins, then walks the node's rows once and adds each
            // gradient to every feature of the block: the features'
            // chains are independent, and per (feature, bin) the
            // accumulation order is still row order, so any blocking
            // and any fan-out agree bitwise.
            const size_t node_rows = task.end - task.begin;
            const bool wide = node_rows * nf >= kMinParallelWork;
            const int *node_idx = rows.data() + task.begin;
            auto build_hist = [&](int64_t blk_lo, int64_t blk_hi) {
                for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
                    const size_t f_lo = block_begin(blk);
                    const size_t width = block_begin(blk + 1) - f_lo;
                    double *block_g = hist_g.data() + f_lo * kMaxBins;
                    uint32_t *block_n = hist_n.data() + f_lo * kMaxBins;
                    for (size_t j = 0; j < width; ++j) {
                        std::fill_n(block_g + j * kMaxBins,
                                    nbins(f_lo + j), 0.0);
                        std::fill_n(block_n + j * kMaxBins,
                                    nbins(f_lo + j), 0u);
                    }
                    // The block's code columns are adjacent, n apart.
                    const uint8_t *block_codes = binned.col(f_lo);
                    for (size_t k = 0; k < node_rows; ++k) {
                        const uint8_t *codes = block_codes + node_idx[k];
                        const double g = gord[k];
                        // Unrolled over the widest block; the width
                        // test goes the same way for a whole block.
#pragma GCC unroll kBlockWidth
                        for (size_t j = 0; j < kBlockWidth; ++j) {
                            if (j < width) {
                                const size_t bin =
                                    j * kMaxBins + codes[j * n];
                                block_g[bin] += g;
                                ++block_n[bin];
                            }
                        }
                    }
                }
            };
            {
                obs::ScopedTimer timer("gbt.histogram");
                for (size_t k = 0; k < node_rows; ++k)
                    gord[k] = grad[node_idx[k]];
                if (wide) {
                    ThreadPool::global().parallelFor(
                        0, static_cast<int64_t>(num_blocks), 1,
                        build_hist);
                } else {
                    build_hist(0, static_cast<int64_t>(num_blocks));
                }
            }

            // Best split scan, fanned out over features. Each chunk
            // keeps a local argmax; the merge walks chunks in feature
            // order with the same strict > the serial scan uses, so
            // ties resolve identically (lowest feature, lowest bin).
            const double parent_sim =
                similarity(gsum, hsum, params.lambda);
            struct SplitCand
            {
                double gain = 0.0;
                int feature = -1;
                int bin = -1;
            };
            std::vector<SplitCand> cand(nf);
            auto scan_features = [&](int64_t f_lo, int64_t f_hi) {
                for (int64_t f = f_lo; f < f_hi; ++f) {
                    SplitCand best;
                    double gl = 0.0, hl = 0.0;
                    const double *fg = hist_g.data() + f * kMaxBins;
                    const uint32_t *fn = hist_n.data() + f * kMaxBins;
                    for (size_t bin = 0; bin + 1 < nbins(f); ++bin) {
                        // Counts are exact integers, so hl takes the
                        // same values as a sum of 1.0 per row.
                        gl += fg[bin];
                        hl += static_cast<double>(fn[bin]);
                        const double gr = gsum - gl;
                        const double hr = hsum - hl;
                        if (hl < params.minChildWeight ||
                            hr < params.minChildWeight)
                            continue;
                        const double gain = 0.5 *
                            (similarity(gl, hl, params.lambda) +
                             similarity(gr, hr, params.lambda) -
                             parent_sim) - params.gamma;
                        if (gain > best.gain) {
                            best.gain = gain;
                            best.feature = static_cast<int>(f);
                            best.bin = static_cast<int>(bin);
                        }
                    }
                    cand[f] = best;
                }
            };
            {
                obs::ScopedTimer timer("gbt.split");
                if (wide) {
                    ThreadPool::global().parallelFor(
                        0, static_cast<int64_t>(nf), 1, scan_features);
                } else {
                    scan_features(0, static_cast<int64_t>(nf));
                }
            }
            double best_gain = 0.0;
            int best_feature = -1;
            int best_bin = -1;
            for (size_t f = 0; f < nf; ++f) {
                if (cand[f].gain > best_gain) {
                    best_gain = cand[f].gain;
                    best_feature = cand[f].feature;
                    best_bin = cand[f].bin;
                }
            }

            if (best_feature < 0) {
                settle(task, leaf);
                continue; // no profitable split: leaf
            }

            // Partition the row range by the winning bin. For a
            // finite x, code <= best_bin exactly when
            // x <= cuts[best_bin] (binFeatures' lower_bound), the
            // node's threshold: the same side GBTTree::predict takes.
            const uint8_t *split_col = binned.col(best_feature);
            const auto mid_it = std::partition(
                rows.begin() + task.begin, rows.begin() + task.end,
                [&](int r) { return split_col[r] <= best_bin; });
            const size_t mid = static_cast<size_t>(
                mid_it - rows.begin());
            if (mid == task.begin || mid == task.end) {
                settle(task, leaf);
                continue; // degenerate partition: leaf
            }

            const int left = static_cast<int>(tree.nodes.size());
            tree.nodes.push_back({});
            const int right = static_cast<int>(tree.nodes.size());
            tree.nodes.push_back({});

            GBTNode &node = tree.nodes[task.node];
            node.feature = best_feature;
            node.threshold = binned.cuts[best_feature][best_bin];
            node.left = left;
            node.right = right;
            node.gain = best_gain;

            stack.push_back({left, task.begin, mid, task.depth + 1});
            stack.push_back({right, mid, task.end, task.depth + 1});
        }

        trees_.push_back(std::move(tree));
    }

    if constexpr (kCheckedBuild) {
        // A non-finite leaf weight (e.g. from a degenerate hessian
        // sum) poisons every later prediction; catch it at the source.
        checkValuesInRange(&base_, 1, -1e12, 1e12, "GBT base");
        for (const auto &t : trees_) {
            for (const auto &node : t.nodes) {
                checkValuesInRange(&node.value, 1, -1e12, 1e12,
                                   "GBT leaf weight");
                checkValuesInRange(&node.threshold, 1, -1e15, 1e15,
                                   "GBT split threshold");
                boreas_check(node.feature <
                             static_cast<int>(numFeatures_),
                             "split feature %d outside %zu features",
                             node.feature, numFeatures_);
            }
        }
        checkValuesInRange(pred.data(), pred.size(), -1e12, 1e12,
                           "GBT training prediction");
    }
}

double
GBTRegressor::predict(const double *x) const
{
    double acc = base_;
    for (const auto &tree : trees_)
        acc += params_.learningRate * tree.predict(x);
    return acc;
}

double
GBTRegressor::predict(const std::vector<double> &x) const
{
    boreas_assert(x.size() == numFeatures_,
                  "feature vector size %zu != %zu", x.size(),
                  numFeatures_);
    return predict(x.data());
}

std::vector<double>
GBTRegressor::predictAll(const Dataset &data) const
{
    boreas_assert(data.numFeatures() == numFeatures_,
                  "dataset feature count mismatch");
    // Compile-and-batch through the flat engine: compilation is a few
    // microseconds for paper-sized models, and predictBatch is
    // bit-identical to the per-row reference walk (DESIGN.md §12).
    const FlatGBT flat(*this);
    return flat.predictDataset(data);
}

double
GBTRegressor::mse(const Dataset &data) const
{
    boreas_assert(data.numRows() > 0, "empty eval set");
    const auto preds = predictAll(data);
    double acc = 0.0;
    for (size_t r = 0; r < data.numRows(); ++r) {
        const double d = preds[r] - data.y(r);
        acc += d * d;
    }
    return acc / static_cast<double>(data.numRows());
}

std::vector<double>
GBTRegressor::featureImportance() const
{
    std::vector<double> gains(numFeatures_, 0.0);
    for (const auto &tree : trees_)
        for (const auto &node : tree.nodes)
            if (node.feature >= 0)
                gains[node.feature] += node.gain;
    double total = 0.0;
    for (double g : gains)
        total += g;
    if (total > 0.0)
        for (double &g : gains)
            g /= total;
    return gains;
}

size_t
GBTRegressor::modelBytes() const
{
    // Sec. V-E accounting: full trees, one 32-bit value per node.
    const size_t nodes_per_tree =
        (static_cast<size_t>(1) << (params_.maxDepth + 1)) - 1;
    return trees_.size() * nodes_per_tree * 4;
}

size_t
GBTRegressor::comparisonsPerPrediction() const
{
    return trees_.size() * static_cast<size_t>(params_.maxDepth);
}

size_t
GBTRegressor::additionsPerPrediction() const
{
    return trees_.empty() ? 0 : trees_.size() - 1;
}

void
GBTRegressor::save(std::ostream &os) const
{
    // Full round-trip precision: thresholds decide tree paths, so any
    // rounding can flip predictions. Scoped so the caller's stream
    // format is left untouched.
    ScopedStreamPrecision precision(os);
    os << "boreas-gbt 1\n";
    os << params_.learningRate << " " << params_.gamma << " "
       << params_.maxDepth << " " << params_.nEstimators << " "
       << params_.lambda << "\n";
    os << base_ << " " << numFeatures_ << " " << trees_.size() << "\n";
    for (const auto &tree : trees_) {
        os << tree.nodes.size() << "\n";
        for (const auto &n : tree.nodes) {
            os << n.feature << " " << n.threshold << " " << n.left << " "
               << n.right << " " << n.value << " " << n.gain << "\n";
        }
    }
}

bool
GBTRegressor::tryLoad(std::istream &is, std::string *error)
{
    // Upper bounds on what a genuine model can contain, enforced
    // BEFORE any container is sized from a stream-supplied count: a
    // corrupted count must fail with a clean error, never a multi-GB
    // allocation. The largest paper configuration (fig7, 223 trees of
    // depth 3) is orders of magnitude below all of them.
    constexpr size_t kMaxLoadTrees = 1 << 16;
    constexpr size_t kMaxLoadNodes = 1 << 20;
    constexpr size_t kMaxLoadFeatures = 1 << 16;

    // Parse into a fresh model and adopt it only once it is valid, so
    // a rejected stream leaves *this untouched.
    GBTRegressor m;
    std::string magic;
    int version = 0;
    is >> magic >> version;
    if (is.fail() || magic != "boreas-gbt" || version != 1)
        return loadError(error, "bad GBT model header");
    is >> m.params_.learningRate >> m.params_.gamma >>
        m.params_.maxDepth >> m.params_.nEstimators >> m.params_.lambda;
    size_t num_trees = 0;
    is >> m.base_ >> m.numFeatures_ >> num_trees;
    // fail(), not good(): a byte-complete file whose last token meets
    // EOF instead of a trailing newline sets eofbit (good() false)
    // without failing any extraction, and must load cleanly.
    if (is.fail())
        return loadError(error, "truncated GBT model");
    if (!std::isfinite(m.params_.learningRate) ||
        !std::isfinite(m.params_.gamma) ||
        !std::isfinite(m.params_.lambda) || !std::isfinite(m.base_))
        return loadError(error, "bad GBT model: non-finite header value");
    if (m.params_.maxDepth < 1 || m.params_.maxDepth > 64)
        return loadError(error,
                         strfmt("bad GBT model: depth %d out of range",
                                m.params_.maxDepth));
    if (m.numFeatures_ < 1 || m.numFeatures_ > kMaxLoadFeatures)
        return loadError(error,
                         strfmt("bad GBT model: %zu features out of "
                                "range", m.numFeatures_));
    if (num_trees > kMaxLoadTrees)
        return loadError(error,
                         strfmt("bad GBT model: tree count %zu out of "
                                "range", num_trees));
    m.trees_.assign(num_trees, {});
    for (auto &tree : m.trees_) {
        size_t num_nodes = 0;
        is >> num_nodes;
        if (is.fail())
            return loadError(error, "truncated GBT model tree");
        if (num_nodes < 1 || num_nodes > kMaxLoadNodes)
            return loadError(error,
                             strfmt("bad GBT model: node count %zu out "
                                    "of range", num_nodes));
        tree.nodes.assign(num_nodes, {});
        for (auto &n : tree.nodes) {
            is >> n.feature >> n.threshold >> n.left >> n.right >>
                n.value >> n.gain;
        }
        if (is.fail())
            return loadError(error, "truncated GBT model tree");
        // Structural validation before anything can call predict():
        // an out-of-range feature or child index would read out of
        // bounds inside the descent loop. Children must point strictly
        // forward (the grower appends them after their parent), which
        // also guarantees every descent terminates.
        const int n_nodes = static_cast<int>(num_nodes);
        std::vector<char> has_parent(num_nodes, 0);
        for (int i = 0; i < n_nodes; ++i) {
            const GBTNode &n = tree.nodes[i];
            if (!std::isfinite(n.value) || !std::isfinite(n.threshold))
                return loadError(error,
                                 strfmt("bad GBT model: non-finite "
                                        "node %d", i));
            if (n.feature < 0)
                continue; // leaf: child links unused
            if (n.feature >= static_cast<int>(m.numFeatures_))
                return loadError(error,
                                 strfmt("bad GBT model: node %d feature "
                                        "%d outside %zu features", i,
                                        n.feature, m.numFeatures_));
            if (n.left <= i || n.left >= n_nodes || n.right <= i ||
                n.right >= n_nodes)
                return loadError(error,
                                 strfmt("bad GBT model: node %d "
                                        "children %d/%d out of range",
                                        i, n.left, n.right));
            // One parent per node keeps the nodes a tree: a node
            // shared by two links would let a walk over every path
            // (depth(), FlatGBT's compile) double at each level.
            for (const int child : {n.left, n.right}) {
                if (has_parent[child])
                    return loadError(error,
                                     strfmt("bad GBT model: node %d "
                                            "has two parents", child));
                has_parent[child] = 1;
            }
        }
    }
    *this = std::move(m);
    return true;
}

void
GBTRegressor::load(std::istream &is)
{
    std::string error;
    if (!tryLoad(is, &error))
        boreas_panic("%s", error.c_str());
}

} // namespace boreas
