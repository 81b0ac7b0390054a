#include "ml/gbt.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "common/checked.hh"
#include "common/iofmt.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
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

/**
 * Features per histogram block, one lane each. A bin's lanes are one
 * 64-byte line of int64 sums.
 */
constexpr size_t kBlockLanes = 8;

/** int64 slots of one block: bin-major, lane-minor. */
constexpr size_t kBlockSlots = kMaxBins * kBlockLanes;

/**
 * The fixed-point scale of one round: the largest k with
 * max|g| * 2^k <= 2^B / n - 1, so that n * max|nearestInt(g * 2^k)|
 * < 2^B and every partial sum of the round's q is below 2^B in
 * magnitude. B = min(51, 62 - cb): 62 - cb leaves room for the cb
 * count bits below the sum in an int64, and 51 keeps it exact as a
 * double. Returns false when the gradients are non-finite or so
 * far from 1 that the gains could leave the normal double range; that
 * round grows single-leaf trees.
 */
bool
chooseScale(double max_abs, size_t n, int count_bits, int *k)
{
    if (max_abs == 0.0) {
        *k = 0;
        return true;
    }
    if (!(max_abs >= 0x1p-200 && max_abs <= 0x1p200))
        return false;
    const double limit = std::ldexp(1.0, std::min(51, 62 - count_bits)) /
        static_cast<double>(n) - 1.0;
    if (!(limit >= 1.0))
        return false;
    int e = 0;
    std::frexp(limit / max_abs, &e);
    int scale = e;
    while (std::ldexp(max_abs, scale) > limit)
        --scale;
    *k = scale;
    return true;
}

/** Constants of one node's split scan (DESIGN.md §6). */
struct ScanConsts
{
    int countBits;     ///< cb
    int64_t countMask; ///< 2^cb - 1
    double rows;       ///< m, the node's row count
    double minRows;    ///< fewest rows a child may hold, >= 1
    double lambda;
    double gradSum;    ///< the node's exact sum of q, as a double
};

/** x rounded to the nearest integer, ties to even, for |x| < 2^51:
 *  adding 1.5 * 2^52 rounds x and leaves it in the low mantissa bits. */
inline int64_t
nearestInt(double x)
{
    const double shifted = x + 0x1.8p52;
    int64_t bits;
    std::memcpy(&bits, &shifted, sizeof(bits));
    return bits - 0x4338000000000000LL;
}

/** Each lane's best split in one block: score num / den at bin `bin`;
 *  a lane without a valid split keeps -1 / 1 at bin -1. */
struct LaneBest
{
    double num[kBlockLanes];
    double den[kBlockLanes];
    double bin[kBlockLanes];
};

/**
 * Four lanes of a block's bin. The AVX2 and AVX-512 clones compare
 * these whole; GCC splits the compares of an eight-lane Strip into
 * scalar ones in the AVX2 clone.
 */
typedef double Quad __attribute__((vector_size(32), aligned(32)));
typedef int64_t IntQuad __attribute__((vector_size(32), aligned(32)));
typedef uint64_t UintQuad __attribute__((vector_size(32), aligned(32)));
constexpr size_t kQuadLanes = 4;

/**
 * The best split of every feature of one histogram block. The block
 * holds, per bin b and lane j, the packed sum over bins 0..b of lane
 * j's feature (DESIGN.md §6). Each of the first `positions` bins whose
 * two children both hold at least minRows rows scores
 *
 *   s = QL^2 / (nL + lambda) + QR^2 / (nR + lambda)
 *     = (QL^2 dR + QR^2 dL) / (dL dR)
 *
 * from those exact integer sums (QL, nL: bins 0..b; QR, nR: the rest),
 * in units of 2^-2k, as the fraction num / den. Positions past a
 * lane's last split hold every row on the left, so the count test
 * masks them, and an unused lane's zero sums too. Each lane keeps a
 * running best in bin order by strict cross-multiplied >, so the
 * lowest bin wins a tie. A lane starts from -1 / 1 and an invalid
 * position scores the same, which beats neither that start nor a
 * valid split's num >= 0 over den > 0. Lanes are independent and each
 * runs the same correctly rounded operations, so every clone gives
 * the same bits (§9.6).
 */
BOREAS_TARGET_CLONES("avx512f", "avx2", "default")
void
blockBest(const int64_t *__restrict prefix, size_t positions,
          const ScanConsts &c, LaneBest *__restrict best)
{
    // An integer |x| < 2^51 plus the bits of 1.5 * 2^52, read as a
    // double, less 1.5 * 2^52, is x: AVX2 has no int64 -> double
    // conversion. The biased logical shift is an arithmetic shift of
    // the sum field (|sum| < 2^62), which AVX2 lacks for 64-bit lanes.
    // A cast between vector types keeps the bits.
    constexpr int64_t kMagic = 0x4338000000000000LL; // 1.5 * 2^52
    constexpr uint64_t kBias = uint64_t(1) << 62;
    const int64_t unbias = static_cast<int64_t>(kBias >> c.countBits);
    const Quad zero = {};
    for (size_t h = 0; h < kBlockLanes; h += kQuadLanes) {
        Quad bnum = zero - 1.0, bden = zero + 1.0, bbin = zero - 1.0;
        for (size_t b = 0; b < positions; ++b) {
            IntQuad v;
            std::memcpy(&v, prefix + b * kBlockLanes + h, sizeof(v));
            const IntQuad q =
                (IntQuad)(((UintQuad)v + kBias) >> c.countBits) - unbias;
            const Quad nl = (Quad)((v & c.countMask) + kMagic) - 0x1.8p52;
            const Quad ql = (Quad)(q + kMagic) - 0x1.8p52;
            const Quad qr = c.gradSum - ql;
            const Quad nr = c.rows - nl;
            const Quad dl = nl + c.lambda;
            const Quad dr = nr + c.lambda;
            const Quad fewer = nl < nr ? nl : nr;
            const Quad num = fewer < c.minRows
                ? zero - 1.0 : ql * ql * dr + qr * qr * dl;
            const Quad den = fewer < c.minRows ? zero + 1.0 : dl * dr;
            const Quad mine = num * bden;
            const Quad held = bnum * den;
            bnum = mine > held ? num : bnum;
            bden = mine > held ? den : bden;
            bbin = mine > held ? zero + static_cast<double>(b) : bbin;
        }
        for (size_t j = 0; j < kQuadLanes; ++j) {
            best->num[h + j] = bnum[j];
            best->den[h + j] = bden[j];
            best->bin[h + j] = bbin[j];
        }
    }
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
    boreas_assert(params.lambda >= 0.0 && std::isfinite(params.lambda),
                  "lambda %g must be finite and >= 0", params.lambda);
    params_ = params;
    numFeatures_ = data.numFeatures();
    trees_.clear();

    const size_t n = data.numRows();
    base_ = data.targetMean();

    const BinnedData binned = binFeatures(data, params.maxBins);
    const size_t nf = binned.numFeatures;
    auto nbins = [&](size_t f) { return binned.cuts[f].size() + 1; };

    // Split-search histograms (DESIGN.md §6): one int64 per (feature,
    // bin) holding q-sum * 2^cb + row count, summed over bins 0..b, in
    // blocks of at most kBlockLanes features split evenly. Feature f
    // sits in lane f - block_begin(blk) of its block; block_bins is the
    // widest of a block's features.
    const size_t num_blocks = (nf + kBlockLanes - 1) / kBlockLanes;
    auto block_begin = [&](size_t blk) { return blk * nf / num_blocks; };
    std::vector<size_t> block_bins(num_blocks);
    for (size_t blk = 0; blk < num_blocks; ++blk)
        for (size_t f = block_begin(blk); f < block_begin(blk + 1); ++f)
            block_bins[blk] = std::max(block_bins[blk], nbins(f));
    const int count_bits = std::bit_width(n);
    const int64_t count_mask = (int64_t(1) << count_bits) - 1;

    // A node's histograms live in a pool slot from the split that
    // made it until its own split. Depth-first growth keeps at most
    // one pending sibling per level, so maxDepth + 1 slots suffice.
    std::vector<std::vector<int64_t>> pool;
    std::vector<int> free_slots;
    auto acquire = [&]() {
        if (free_slots.empty()) {
            boreas_assert(pool.size() <=
                          static_cast<size_t>(params.maxDepth),
                          "histogram pool past its %d-slot bound",
                          params.maxDepth + 1);
            pool.emplace_back(num_blocks * kBlockSlots);
            return static_cast<int>(pool.size()) - 1;
        }
        const int slot = free_slots.back();
        free_slots.pop_back();
        return slot;
    };

    // The fewest rows a child may hold: the smallest integer count c
    // with double(c) >= minChildWeight, and at least 1, so no split
    // leaves a side empty.
    const double min_rows = std::max(1.0, std::ceil(params.minChildWeight));

    // Below this many (row, feature) visits a histogram build is
    // cheaper serial than fanned out.
    constexpr size_t kMinParallelWork = 1 << 14;

    std::vector<double> pred(n, base_);
    std::vector<double> grad(n, 0.0);
    std::vector<int64_t> packed(n);
    std::vector<int64_t> pord(n); // a child's packed values, `rows` order
    std::vector<int> rows(n);

    // Integer histograms of rows [begin, end) into `slot`. A block
    // zeroes its bins, walks the rows once and adds each packed value
    // to every feature of the block; integer sums do not depend on
    // the order, so any blocking and any fan-out agree bitwise.
    auto build_hist = [&](int slot, size_t begin, size_t end) {
        int64_t *hist = pool[slot].data();
        const size_t count = end - begin;
        const int *idx = rows.data() + begin;
        for (size_t k = 0; k < count; ++k)
            pord[k] = packed[idx[k]];
        auto build_blocks = [&](int64_t blk_lo, int64_t blk_hi) {
            for (int64_t blk = blk_lo; blk < blk_hi; ++blk) {
                const size_t f_lo = block_begin(blk);
                const size_t width = block_begin(blk + 1) - f_lo;
                int64_t *block = hist + blk * kBlockSlots;
                const size_t used = block_bins[blk] * kBlockLanes;
                std::fill_n(block, used, 0);
                // The block's code columns are adjacent, n apart.
                const uint8_t *block_codes = binned.col(f_lo);
                for (size_t k = 0; k < count; ++k) {
                    const uint8_t *codes = block_codes + idx[k];
                    const int64_t p = pord[k];
                    // Unrolled over the widest block; the width test
                    // goes the same way for a whole block.
#pragma GCC unroll kBlockLanes
                    for (size_t j = 0; j < kBlockLanes; ++j) {
                        if (j < width)
                            block[codes[j * n] * kBlockLanes + j] += p;
                    }
                }
                // Cumulative over the bins: each entry now sums bins
                // 0..b, which is what the split scan reads, and
                // parent - child stays exact.
                for (size_t i = kBlockLanes; i < used; ++i)
                    block[i] += block[i - kBlockLanes];
            }
        };
        if (count * nf >= kMinParallelWork) {
            ThreadPool::global().parallelFor(
                0, static_cast<int64_t>(num_blocks), 1, build_blocks);
        } else {
            build_blocks(0, static_cast<int64_t>(num_blocks));
        }
    };

    for (int t = 0; t < params.nEstimators; ++t) {
        // A NaN gradient makes the max NaN too, so chooseScale refuses
        // the round.
        double max_abs_grad = 0.0;
        for (size_t i = 0; i < n; ++i) {
            grad[i] = pred[i] - data.y(i);
            const double a = std::fabs(grad[i]);
            if (!(a <= max_abs_grad))
                max_abs_grad = a;
        }

        // Every round partitions all rows afresh from 0..n-1: the
        // leaf weights' accumulation order follows this order.
        std::iota(rows.begin(), rows.end(), 0);

        int scale_exp = 0; // k, the round's fixed-point exponent
        const bool scaled =
            chooseScale(max_abs_grad, n, count_bits, &scale_exp);

        GBTTree tree;
        // Recursive level-wise growth over index ranges of `rows`. A
        // task that may split holds its node's histograms in pool
        // slot `hist`.
        struct Task
        {
            int node;
            size_t begin, end;
            int depth;
            int hist;
        };
        // A node at `depth` with `count` rows is searched unless it
        // must stay a leaf. A round without a scale searches none.
        auto may_split = [&](int depth, size_t count) {
            return scaled && depth < params.maxDepth &&
                static_cast<double>(count) >= 2.0 * min_rows;
        };
        tree.nodes.push_back({});
        std::vector<Task> stack{{0, 0, n, 0, -1}};

        // Quantize once per round: q_i = g_i * 2^k rounded to the
        // nearest integer, packed with a count of 1.
        if (may_split(0, n)) {
            obs::ScopedTimer timer("gbt.histogram");
            const double scale = std::ldexp(1.0, scale_exp);
            for (size_t i = 0; i < n; ++i)
                packed[i] = nearestInt(grad[i] * scale) *
                    (int64_t(1) << count_bits) + 1;
            stack[0].hist = acquire();
            build_hist(stack[0].hist, 0, n);
        }

        // A task that ends as a leaf settles its rows: the partitions
        // above it gathered exactly the rows whose descent reaches
        // this leaf into [begin, end), so each row gets its one
        // pred += learningRate * leaf of the round without walking
        // the tree.
        auto settle = [&](const Task &task, double leaf) {
            const double step = params.learningRate * leaf;
            for (size_t k = task.begin; k < task.end; ++k)
                pred[rows[k]] += step;
            if (task.hist >= 0)
                free_slots.push_back(task.hist);
        };

        while (!stack.empty()) {
            const Task task = stack.back();
            stack.pop_back();

            double gsum = 0.0;
            for (size_t k = task.begin; k < task.end; ++k)
                gsum += grad[rows[k]];
            const size_t node_rows = task.end - task.begin;
            const double hsum = static_cast<double>(node_rows);

            const double leaf = leafWeight(gsum, hsum, params.lambda);
            tree.nodes[task.node].value = leaf;

            if (!may_split(task.depth, node_rows)) {
                settle(task, leaf);
                continue; // stays a leaf
            }

            const int64_t *hist = pool[task.hist].data();
            // Feature 0's last bin sums every row of the node.
            const int64_t node_sum = hist[(nbins(0) - 1) * kBlockLanes];
            if constexpr (kCheckedBuild) {
                // Every feature's last bin must hold the node's
                // (sum of q, rows), or a sibling subtraction went wrong.
                int64_t expect = 0;
                for (size_t k = task.begin; k < task.end; ++k)
                    expect += packed[rows[k]];
                for (size_t f = 0, blk = 0; f < nf; ++f) {
                    blk += f == block_begin(blk + 1);
                    const int64_t last = hist[blk * kBlockSlots +
                        (nbins(f) - 1) * kBlockLanes + f - block_begin(blk)];
                    boreas_check(last == expect,
                                 "feature %zu histogram sums %lld, its "
                                 "node %lld", f, static_cast<long long>(last),
                                 static_cast<long long>(expect));
                }
            }

            // The split search, on the exact integer sums alone: each
            // block's lane winners, merged in feature order by the same
            // strict cross-multiplied >, so the lowest feature wins a
            // tie.
            const ScanConsts consts{
                count_bits, count_mask, hsum, min_rows, params.lambda,
                static_cast<double>(node_sum >> count_bits)};
            double best_num = -1.0, best_den = 1.0;
            int best_feature = -1;
            int best_bin = -1;
            {
                obs::ScopedTimer timer("gbt.split");
                // A few microseconds per block whatever the node's size:
                // cheaper serial than fanned out.
                for (size_t blk = 0; blk < num_blocks; ++blk) {
                    LaneBest lanes;
                    blockBest(hist + blk * kBlockSlots, block_bins[blk] - 1,
                              consts, &lanes);
                    const size_t f_lo = block_begin(blk);
                    for (size_t f = f_lo; f < block_begin(blk + 1); ++f) {
                        const size_t j = f - f_lo;
                        if (!(lanes.num[j] * best_den >
                              best_num * lanes.den[j]))
                            continue;
                        best_num = lanes.num[j];
                        best_den = lanes.den[j];
                        best_feature = static_cast<int>(f);
                        best_bin = static_cast<int>(lanes.bin[j]);
                    }
                }
            }
            // The node splits iff gain = 1/2 (s - P) - gamma > 0, with s
            // and the parent's P in units of 2^-2k.
            const double parent_score =
                consts.gradSum * consts.gradSum / (hsum + params.lambda);
            const double gain = std::ldexp(
                0.5 * (best_num / best_den - parent_score),
                -2 * scale_exp) - params.gamma;
            if (best_feature < 0 || !(gain > 0.0)) {
                settle(task, leaf);
                continue; // no profitable split: leaf
            }

            // Partition the row range by the winning bin. For a
            // finite x, code <= best_bin exactly when
            // x <= cuts[best_bin] (binFeatures' lower_bound), the
            // node's threshold: the same side GBTTree::predict takes.
            // The exact counts gave each side at least min_rows rows.
            const uint8_t *split_col = binned.col(best_feature);
            const auto mid_it = std::partition(
                rows.begin() + task.begin, rows.begin() + task.end,
                [&](int r) { return split_col[r] <= best_bin; });
            const size_t mid = static_cast<size_t>(
                mid_it - rows.begin());
            boreas_check(mid > task.begin && mid < task.end,
                         "split of feature %d at bin %d leaves a side "
                         "empty", best_feature, best_bin);

            const int left = static_cast<int>(tree.nodes.size());
            tree.nodes.push_back({});
            const int right = static_cast<int>(tree.nodes.size());
            tree.nodes.push_back({});

            GBTNode &node = tree.nodes[task.node];
            node.feature = best_feature;
            node.threshold = binned.cuts[best_feature][best_bin];
            node.left = left;
            node.right = right;
            node.gain = gain;

            // Children's histograms: build the smaller child's, and
            // take the larger's as parent - smaller, in place and
            // exact. A child that cannot split needs none.
            Task lo{left, task.begin, mid, task.depth + 1, -1};
            Task hi{right, mid, task.end, task.depth + 1, -1};
            Task &small = mid - task.begin <= task.end - mid ? lo : hi;
            Task &large = &small == &lo ? hi : lo;
            const bool small_splits =
                may_split(small.depth, small.end - small.begin);
            const bool large_splits =
                may_split(large.depth, large.end - large.begin);
            if (small_splits || large_splits) {
                const int slot = acquire();
                {
                    obs::ScopedTimer timer("gbt.histogram");
                    build_hist(slot, small.begin, small.end);
                }
                if (large_splits) {
                    obs::ScopedTimer timer("gbt.subtract");
                    int64_t *parent = pool[task.hist].data();
                    const int64_t *child = pool[slot].data();
                    for (size_t blk = 0; blk < num_blocks; ++blk) {
                        const size_t base = blk * kBlockSlots;
                        for (size_t i = 0; i < block_bins[blk] * kBlockLanes;
                             ++i)
                            parent[base + i] -= child[base + i];
                    }
                    large.hist = task.hist;
                } else {
                    free_slots.push_back(task.hist);
                }
                if (small_splits)
                    small.hist = slot;
                else
                    free_slots.push_back(slot);
            } else {
                free_slots.push_back(task.hist);
            }

            stack.push_back(lo);
            stack.push_back(hi);
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
        boreas_check(free_slots.size() == pool.size(),
                     "%zu of %zu histogram slots still held after "
                     "training", pool.size() - free_slots.size(),
                     pool.size());
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
    for (size_t t = 0; t < num_trees; ++t) {
        GBTTree &tree = m.trees_[t];
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
        // A tree the flat serving engine cannot pad would abort its
        // compile; reject it here, where the caller can recover.
        const int depth = tree.depth();
        if (depth > FlatGBT::kMaxDepth)
            return loadError(error,
                             strfmt("bad GBT model: tree %zu depth %d "
                                    "exceeds the serving limit %d", t,
                                    depth, FlatGBT::kMaxDepth));
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
