/**
 * @file
 * Hotspot metrics from HotGauge: MLTD and Hotspot-Severity.
 *
 * MLTD (Maximum Local Temperature Difference) at a location is the
 * largest temperature drop from that location to any point within a
 * fixed radius: hot logic next to cold logic stresses clock-timing
 * margins even when the absolute temperature is acceptable.
 *
 * Hotspot-Severity combines absolute temperature and MLTD into a single
 * value in [0, ~), where 1.0 means the chip is in immediate danger
 * (device damage or timing failure). Per Fig. 1 of the paper, severity
 * is exactly 1.0 at:
 *     (T = 115 C, MLTD =  0 C)   -- uniformly critical-hot chip
 *     (T =  95 C, MLTD = 20 C)   -- intermediate
 *     (T =  80 C, MLTD = 40 C)   -- advanced hotspot
 * We implement this as a piecewise-linear critical-temperature curve
 * T_crit(MLTD) through those anchors and define
 *     severity(T, M) = (T - T_ref) / (T_crit(M) - T_ref),  T_ref = 45 C.
 */

#pragma once

#include <vector>

#include "common/types.hh"

namespace boreas
{

/** Tunable anchors of the severity metric (defaults = paper Fig. 1). */
struct SeverityParams
{
    Celsius tRef = 45.0;          ///< reference (cool) temperature
    Celsius tCritUniform = 115.0; ///< T_crit at MLTD = 0
    Celsius tCritMid = 95.0;      ///< T_crit at MLTD = mltdMid
    Celsius tCritHigh = 80.0;     ///< T_crit at MLTD = mltdHigh
    Celsius mltdMid = 20.0;
    Celsius mltdHigh = 40.0;
    Celsius tCritFloor = 55.0;    ///< clamp for extreme MLTD
    Meters mltdRadius = 1.0e-3;   ///< neighborhood radius for MLTD
};

/** Peak-severity evaluation of one thermal snapshot. */
struct SeveritySnapshot
{
    double maxSeverity = 0.0;
    int argmaxCell = -1;       ///< flat cell index of the peak
    Celsius tempAtMax = 0.0;   ///< temperature at the peak cell
    Celsius mltdAtMax = 0.0;   ///< MLTD at the peak cell
    Celsius maxTemp = 0.0;     ///< chip-wide max temperature
    Celsius maxMltd = 0.0;     ///< chip-wide max MLTD
};

/** The Hotspot-Severity metric. */
class SeverityModel
{
  public:
    explicit SeverityModel(const SeverityParams &params = {});

    const SeverityParams &params() const { return params_; }

    /** Critical temperature as a function of MLTD (piecewise linear). */
    Celsius criticalTemp(Celsius mltd) const;

    /** Severity of a (temperature, MLTD) pair; >= 0, 1.0 = critical. */
    double severity(Celsius temp, Celsius mltd) const;

    /**
     * MLTD field of a temperature grid: per cell, the drop from the cell
     * to the coolest cell within the radius, over a square window of
     * half-width w = round(radius / cell_size) cells (at least 1,
     * approximating the disk). Shares evaluate()'s vector kernel: per
     * row, a running (van Herk / Gil-Werman) column min over 2w+1
     * rows, then a log-step row min of that row padded with +inf;
     * O(cells * log w), a constant number of mins per cell in the
     * column direction and about log2(2w+1) in the row direction.
     * cell_size must be finite and > 0.
     */
    std::vector<Celsius> mltdField(const std::vector<Celsius> &temps,
                                   int nx, int ny,
                                   Meters cell_size) const;

    /**
     * Evaluate the snapshot metrics of a temperature grid, fused with
     * the MLTD pass of mltdField() into one dispatched vector kernel
     * whose results match the scalar severity() bit for bit.
     *
     * @param per_cell optional out-param: per-cell severity field
     */
    SeveritySnapshot evaluate(const std::vector<Celsius> &temps,
                              int nx, int ny, Meters cell_size,
                              std::vector<double> *per_cell =
                                  nullptr) const;

  private:
    SeverityParams params_;
};

} // namespace boreas
