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
 * The severity kernel, fused over one output row at a time:
 *   1. the column min of each cell over the 2w+1 rows around it
 *      (clamped to the grid), stored into `pad` between w +inf cells
 *      on either side;
 *   2. the row min of that padded row over 2w+1 offset loads, which
 *      completes the square-window min (min is exact, so the order of
 *      the two passes does not change a bit);
 *   3. MLTD and the piecewise severity, computed on every segment and
 *      selected per lane, with each segment's arithmetic exactly as
 *      criticalTemp() and severity() write it;
 *   4. per-lane running maxima and a first-index argmax, reduced
 *      across lanes at the end.
 * Mins and maxes are written `a < b ? a : b` on strips: GCC
 * vectorizes that form, not std::min. Every clone runs the same
 * per-lane operations, and contraction is off (-ffp-contract=off in
 * CMake), so all clones agree bit for bit with the scalar definition.
 * `pad` holds roundUp(nx, kLanes) + 2w cells, all +inf on entry;
 * mltd_out and sev_out are optional.
 */
BOREAS_TARGET_CLONES("avx512f", "avx2", "default")
__attribute__((flatten)) void
scanRows(const SeverityParams &p, const double *temps, int nx, int ny,
         int w, double *pad, double *mltd_out, double *sev_out,
         SeveritySnapshot &snap)
{
    const double slope_low = (p.tCritMid - p.tCritUniform) / p.mltdMid;
    const double slope_high = (p.tCritHigh - p.tCritMid) /
        (p.mltdHigh - p.mltdMid);
    const Strip zero = {};
    const Strip uniform = zero + p.tCritUniform;
    const Strip floor = zero + p.tCritFloor;

    // Per-lane running state; index -1 marks a lane that saw no cell.
    Strip best_sev = zero - 1.0;
    Strip best_idx = zero - 1.0;
    Strip best_temp = zero;
    Strip best_mltd = zero;
    Strip max_temp = zero;
    Strip max_mltd = zero;
    Strip m = zero, v = zero, t = zero;
    for (int y = 0; y < ny; ++y) {
        const int y0 = std::max(0, y - w);
        const int y1 = std::min(ny - 1, y + w);
        for (int x0 = 0; x0 < nx; x0 += kLanes) {
            const int lanes = std::min(kLanes, nx - x0);
            loadLanes(m, temps + y0 * nx + x0, lanes);
            for (int yy = y0 + 1; yy <= y1; ++yy) {
                loadLanes(v, temps + yy * nx + x0, lanes);
                m = v < m ? v : m;
            }
            put(pad + w + x0, m, lanes);
        }
        for (int x0 = 0; x0 < nx; x0 += kLanes) {
            const int lanes = std::min(kLanes, nx - x0);
            const int cell = y * nx + x0;
            loadLanes(m, pad + x0);
            for (int k = 1; k <= 2 * w; ++k) {
                loadLanes(v, pad + x0 + k);
                m = v < m ? v : m;
            }
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
                for (int l = lanes; l < kLanes; ++l) {
                    sev[l] = -1.0;
                    scan_mltd[l] = 0.0;
                }
            }
            const auto better = best_sev < sev;
            best_sev = better ? sev : best_sev;
            best_idx = better ? kLaneIndex + cell : best_idx;
            best_temp = better ? t : best_temp;
            best_mltd = better ? mltd : best_mltd;
            max_temp = max_temp < t ? t : max_temp;
            max_mltd = max_mltd < scan_mltd ? scan_mltd : max_mltd;
        }
    }

    // Each lane kept its first maximum, so the winner is the lane with
    // the largest severity, ties going to the smaller cell index.
    int win = -1;
    for (int l = 0; l < kLanes; ++l) {
        snap.maxTemp = (snap.maxTemp < max_temp[l]) ? max_temp[l]
                                                    : snap.maxTemp;
        snap.maxMltd = (snap.maxMltd < max_mltd[l]) ? max_mltd[l]
                                                    : snap.maxMltd;
        if (best_idx[l] < 0.0)
            continue;
        if (win < 0 || best_sev[win] < best_sev[l] ||
            (best_sev[win] == best_sev[l] && best_idx[l] < best_idx[win]))
            win = l;
    }
    if (win >= 0) {
        snap.maxSeverity = best_sev[win];
        snap.argmaxCell = static_cast<int>(best_idx[win]);
        snap.tempAtMax = best_temp[win];
        snap.mltdAtMax = best_mltd[win];
    }
}

/**
 * Check the grid, size the window and run the kernel. The window
 * half-width is clamped to the grid before rounding: any w >= the
 * grid's larger side already covers the whole grid, so the result is
 * unchanged while the scratch row stays grid-sized.
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
    const int w = std::max(1, static_cast<int>(std::lround(cells)));

    const int padded = (nx + kLanes - 1) / kLanes * kLanes;
    std::vector<double> pad(padded + 2 * w,
                            std::numeric_limits<double>::infinity());
    SeveritySnapshot snap;
    scanRows(p, temps.data(), nx, ny, w, pad.data(), mltd_out, sev_out,
             snap);
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
