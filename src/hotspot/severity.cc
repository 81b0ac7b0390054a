#include "hotspot/severity.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/simd.hh"

namespace boreas
{

SeverityModel::SeverityModel(const SeverityParams &params)
    : params_(params)
{
    boreas_assert(params_.tCritUniform > params_.tCritMid &&
                  params_.tCritMid > params_.tCritHigh &&
                  params_.tCritHigh > params_.tCritFloor,
                  "severity anchors must be decreasing");
    boreas_assert(params_.mltdHigh > params_.mltdMid &&
                  params_.mltdMid > 0.0, "bad MLTD anchors");
    boreas_assert(params_.tRef < params_.tCritFloor,
                  "tRef must be below the critical floor");
    boreas_assert(std::isfinite(params_.mltdRadius) &&
                  params_.mltdRadius > 0.0,
                  "mltdRadius must be finite and > 0 (got %g)",
                  params_.mltdRadius);
}

Celsius
SeverityModel::criticalTemp(Celsius mltd) const
{
    const SeverityParams &p = params_;
    double t_crit;
    if (mltd <= 0.0) {
        t_crit = p.tCritUniform;
    } else if (mltd <= p.mltdMid) {
        const double slope = (p.tCritMid - p.tCritUniform) / p.mltdMid;
        t_crit = p.tCritUniform + slope * mltd;
    } else if (mltd <= p.mltdHigh) {
        const double slope = (p.tCritHigh - p.tCritMid) /
            (p.mltdHigh - p.mltdMid);
        t_crit = p.tCritMid + slope * (mltd - p.mltdMid);
    } else {
        // Extrapolate with the last segment's slope, clamped to the
        // physical floor.
        const double slope = (p.tCritHigh - p.tCritMid) /
            (p.mltdHigh - p.mltdMid);
        t_crit = p.tCritHigh + slope * (mltd - p.mltdHigh);
    }
    return std::max(t_crit, p.tCritFloor);
}

double
SeverityModel::severity(Celsius temp, Celsius mltd) const
{
    const double denom = criticalTemp(mltd) - params_.tRef;
    const double sev = (temp - params_.tRef) / denom;
    return std::max(0.0, sev);
}

namespace
{

/** Lane offsets 0..7 of a strip, for cell indices. */
constexpr Strip kLaneIndex = {0, 1, 2, 3, 4, 5, 6, 7};

/**
 * Output rows whose row-min passes run interleaved. Each doubling
 * pass reads, at offsets that are not whole strips, what the pass
 * before it stored a few strips earlier; a load that straddles stores
 * still in flight cannot be forwarded and stalls. Running each pass
 * over four rows before the next lets those stores retire first.
 */
constexpr int kBatch = 4;

constexpr int
roundToStrips(int n)
{
    return (n + kLanes - 1) / kLanes * kLanes;
}

/**
 * The window of the kernel and its per-call scratch, laid out by
 * runKernel(). Cells are indexed on each axis padded with w +inf
 * cells on either side, so that output cell x's window is padded
 * cells [x, x + 2w]; the 2w+1 rows of that axis form the blocks of
 * the column min.
 */
struct Window
{
    int w = 0;      ///< window half-width
    int len = 0;    ///< L = 2w + 1: cells per window, rows per block
    int span = 0;   ///< K, the largest power of two <= L
    int stride = 0; ///< nx in whole strips: the suffix/prefix row width
    int rowCells = 0;         ///< cells of each pad and level row
    double *suffix = nullptr; ///< L rows: the block's suffix mins
    double *prefix = nullptr; ///< the next block's running prefix min
    double *pad = nullptr;    ///< kBatch column-min rows between +inf
    double *level = nullptr;  ///< kBatch rows of the doubling levels
};

/**
 * The severity kernel, fused over kBatch output rows at a time:
 *   1. the column min of each cell over the 2w+1 rows around it, by
 *      van Herk / Gil-Werman: the padded row axis is cut into blocks
 *      of L rows, so output row y's window is the tail of one block
 *      (a suffix min, swept backwards once per block) plus the head
 *      of the next (a running prefix min): one min of the two per
 *      cell, whatever w is;
 *   2. the row min of that column-min row, padded with w +inf cells
 *      on either side, by doubling: a_2j[x] = min(a_j[x], a_j[x+j]),
 *      two doublings per pass where they fit, up to a_K, then
 *      min(a_K[x], a_K[x + L - K]), which covers [x, x + 2w] exactly;
 *   3. MLTD and the piecewise severity, computed on every segment and
 *      selected per lane, with each segment's arithmetic exactly as
 *      criticalTemp() and severity() write it;
 *   4. per-lane running maxima and a first-index argmax, reduced
 *      across lanes at the end.
 * Min is exact: a window's min is one value whatever the order or
 * grouping of its mins, so 1 and 2 give the bits of a direct 2w+1 by
 * 2w+1 scan (DESIGN.md §9.6 has the +-0 and NaN caveats).
 * Mins and maxes are written `a < b ? a : b` on strips: GCC
 * vectorizes that form, not std::min. Every clone runs the same
 * per-lane operations, and contraction is off (-ffp-contract=off in
 * CMake), so all clones agree bit for bit with the scalar definition.
 * The scratch is all +inf on entry; mltd_out and sev_out are optional.
 */
BOREAS_TARGET_CLONES("avx512f", "avx2", "default")
__attribute__((flatten)) void
scanRows(const SeverityParams &p, const double *temps, int nx, int ny,
         const Window &win, double *mltd_out, double *sev_out,
         SeveritySnapshot &snap)
{
    const double slope_low = (p.tCritMid - p.tCritUniform) / p.mltdMid;
    const double slope_high = (p.tCritHigh - p.tCritMid) /
        (p.mltdHigh - p.mltdMid);
    const double inf = std::numeric_limits<double>::infinity();
    const Strip zero = {};
    const Strip uniform = zero + p.tCritUniform;
    const Strip floor = zero + p.tCritFloor;

    const int w = win.w;
    const int len = win.len;
    const int stride = win.stride;
    const int full = nx / kLanes * kLanes; ///< cells in whole strips
    double *suffix = win.suffix;
    double *prefix = win.prefix;

    // Runs f(x0, lanes) over a row's whole strips, then over its
    // partial strip, if any; f is inlined with `lanes` constant in
    // the loop.
    const auto strips = [&](auto &&f) {
        for (int x0 = 0; x0 < full; x0 += kLanes)
            f(x0, kLanes);
        if (full < nx)
            f(full, nx - full);
    };

    // The block holding output row y spans padded rows [base, base +
    // L); padded row r is grid row r - w, and `first` is the block's
    // first row on the grid. `prefix` holds the min over the next
    // block's rows up to y + 2w, +inf while there are none.
    int base = 0, first = 0;
    const auto columnMin = [&](int y, double *pad) {
        const int i = y % len;
        if (i == 0) {
            base = y;
            first = std::max(0, w - base);
            const int last = std::min(len, ny + w - base) - 1;
            strips([&](int x0, int lanes) {
                Strip s, v;
                double *out = suffix + last * stride + x0;
                loadLanes(s, temps + (base + last - w) * nx + x0, lanes);
                put(out, s);
                for (int r = last - 1; r >= first; --r) {
                    out -= stride;
                    loadLanes(v, temps + (base + r - w) * nx + x0, lanes);
                    s = v < s ? v : s;
                    put(out, s);
                }
            });
            std::fill(prefix, prefix + stride, inf);
        }

        // Rows above the grid are +inf, so a suffix starting there is
        // the one starting at `first`. Past a block's first row, the
        // window's last padded row y + 2w is grid row y + w, in the
        // next block: extend the prefix by it while the grid has it.
        const double *suf = suffix + std::max(i, first) * stride;
        const double *row =
            i > 0 && y + w < ny ? temps + (y + w) * nx : nullptr;
        strips([&](int x0, int lanes) {
            Strip m, v;
            loadLanes(m, prefix + x0);
            if (row) {
                loadLanes(v, row + x0, lanes);
                m = v < m ? v : m;
                put(prefix + x0, m);
            }
            loadLanes(v, suf + x0);
            m = v < m ? v : m;
            put(pad + w + x0, m, lanes);
        });
    };

    // a_1 is the pad; each pass writes its level over the last one.
    // a_m is needed on [0, stride + L - m), where it reads a_j on
    // [0, stride + L - j); whole strips read up to 6 cells further.
    const auto rowMin = [&](const double *src, double *level) {
        for (int j = 1; j < win.span; src = level) {
            if (4 * j <= win.span) {
                for (int x0 = 0; x0 < stride + len - 4 * j; x0 += kLanes) {
                    Strip a, b, c, d;
                    loadLanes(a, src + x0);
                    loadLanes(b, src + x0 + j);
                    loadLanes(c, src + x0 + 2 * j);
                    loadLanes(d, src + x0 + 3 * j);
                    a = b < a ? b : a;
                    c = d < c ? d : c;
                    a = c < a ? c : a;
                    put(level + x0, a);
                }
                j *= 4;
            } else {
                for (int x0 = 0; x0 < stride + len - 2 * j; x0 += kLanes) {
                    Strip a, b;
                    loadLanes(a, src + x0);
                    loadLanes(b, src + x0 + j);
                    a = b < a ? b : a;
                    put(level + x0, a);
                }
                j *= 2;
            }
        }
    };

    // Per-lane running state; index -1 marks a lane that saw no cell.
    Strip best_sev = zero - 1.0;
    Strip best_idx = zero - 1.0;
    Strip best_temp = zero;
    Strip best_mltd = zero;
    Strip max_temp = zero;
    Strip max_mltd = zero;
    const int tail = len - win.span;
    const auto score = [&](int y, const double *level) {
        strips([&](int x0, int lanes) {
            Strip m, v, t;
            loadLanes(m, level + x0);
            loadLanes(v, level + x0 + tail);
            m = v < m ? v : m;
            const int cell = y * nx + x0;
            loadLanes(t, temps + cell, lanes);
            const Strip mltd = t - m;

            const Strip seg_low = p.tCritUniform + slope_low * mltd;
            const Strip seg_mid =
                p.tCritMid + slope_high * (mltd - p.mltdMid);
            const Strip seg_high =
                p.tCritHigh + slope_high * (mltd - p.mltdHigh);
            Strip t_crit = mltd <= p.mltdHigh ? seg_mid : seg_high;
            t_crit = mltd <= p.mltdMid ? seg_low : t_crit;
            t_crit = mltd <= 0.0 ? uniform : t_crit;
            t_crit = t_crit < floor ? floor : t_crit;
            Strip sev = (t - p.tRef) / (t_crit - p.tRef);
            sev = zero < sev ? sev : zero;

            if (mltd_out)
                put(mltd_out + cell, mltd, lanes);
            if (sev_out)
                put(sev_out + cell, sev, lanes);

            // Lanes past the row end (temperature 0 from the load) must
            // not win: severity -1 never beats a lane's initial -1, and
            // temperature and MLTD 0 never beat the initial maxima.
            Strip scan_mltd = mltd;
            if (lanes < kLanes) {
                const auto live = kLaneIndex < static_cast<double>(lanes);
                sev = live ? sev : zero - 1.0;
                scan_mltd = live ? mltd : zero;
            }
            const auto better = best_sev < sev;
            best_sev = better ? sev : best_sev;
            best_idx = better ? kLaneIndex + cell : best_idx;
            best_temp = better ? t : best_temp;
            best_mltd = better ? mltd : best_mltd;
            max_temp = max_temp < t ? t : max_temp;
            max_mltd = max_mltd < scan_mltd ? scan_mltd : max_mltd;
        });
    };

    for (int y0 = 0; y0 < ny; y0 += kBatch) {
        const int rows = std::min(kBatch, ny - y0);
        for (int b = 0; b < rows; ++b)
            columnMin(y0 + b, win.pad + b * win.rowCells);
        for (int b = 0; b < rows; ++b)
            rowMin(win.pad + b * win.rowCells,
                   win.level + b * win.rowCells);
        for (int b = 0; b < rows; ++b)
            score(y0 + b, win.level + b * win.rowCells);
    }

    // Each lane kept its first maximum, so the winner is the lane with
    // the largest severity, ties going to the smaller cell index.
    int lead = -1;
    for (int l = 0; l < kLanes; ++l) {
        snap.maxTemp = (snap.maxTemp < max_temp[l]) ? max_temp[l]
                                                    : snap.maxTemp;
        snap.maxMltd = (snap.maxMltd < max_mltd[l]) ? max_mltd[l]
                                                    : snap.maxMltd;
        if (best_idx[l] < 0.0)
            continue;
        if (lead < 0 || best_sev[lead] < best_sev[l] ||
            (best_sev[lead] == best_sev[l] &&
             best_idx[l] < best_idx[lead]))
            lead = l;
    }
    if (lead >= 0) {
        snap.maxSeverity = best_sev[lead];
        snap.argmaxCell = static_cast<int>(best_idx[lead]);
        snap.tempAtMax = best_temp[lead];
        snap.mltdAtMax = best_mltd[lead];
    }
}

/**
 * Check the grid, size the window and its scratch, and run the
 * kernel. The window half-width is clamped to the grid before
 * rounding: any w >= the grid's larger side already covers the whole
 * grid, so the result is unchanged while the scratch stays grid-sized.
 * The scratch is per call, so concurrent evaluations share nothing.
 */
SeveritySnapshot
runKernel(const SeverityParams &p, const std::vector<Celsius> &temps,
          int nx, int ny, Meters cell_size, double *mltd_out,
          double *sev_out)
{
    boreas_assert(nx >= 0 && ny >= 0 &&
                  static_cast<int>(temps.size()) == nx * ny,
                  "temps size %zu != %dx%d", temps.size(), nx, ny);
    boreas_assert(std::isfinite(cell_size) && cell_size > 0.0,
                  "cell_size must be finite and > 0 (got %g)", cell_size);
    const double cells = std::min(p.mltdRadius / cell_size,
                                  static_cast<double>(std::max(nx, ny)));
    Window win;
    win.w = std::max(1, static_cast<int>(std::lround(cells)));
    win.len = 2 * win.w + 1;
    win.span = 2;
    while (2 * win.span <= win.len)
        win.span *= 2;
    win.stride = roundToStrips(nx);
    // Every level pass reads below stride + L + 7 (see rowMin).
    win.rowCells = win.stride + roundToStrips(win.len) + kLanes;

    const size_t block = static_cast<size_t>(win.len) * win.stride;
    const size_t rows = static_cast<size_t>(kBatch) * win.rowCells;
    StripVector<double> scratch(block + win.stride + 2 * rows,
                                std::numeric_limits<double>::infinity());
    win.suffix = scratch.data();
    win.prefix = win.suffix + block;
    win.pad = win.prefix + win.stride;
    win.level = win.pad + rows;

    SeveritySnapshot snap;
    scanRows(p, temps.data(), nx, ny, win, mltd_out, sev_out, snap);
    return snap;
}

} // namespace

std::vector<Celsius>
SeverityModel::mltdField(const std::vector<Celsius> &temps, int nx, int ny,
                         Meters cell_size) const
{
    std::vector<Celsius> mltd(temps.size());
    runKernel(params_, temps, nx, ny, cell_size, mltd.data(), nullptr);
    return mltd;
}

SeveritySnapshot
SeverityModel::evaluate(const std::vector<Celsius> &temps, int nx, int ny,
                        Meters cell_size,
                        std::vector<double> *per_cell) const
{
    if (per_cell)
        per_cell->resize(temps.size());
    return runKernel(params_, temps, nx, ny, cell_size, nullptr,
                     per_cell ? per_cell->data() : nullptr);
}

} // namespace boreas
