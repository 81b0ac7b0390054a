/**
 * @file
 * Compact transient thermal model of the die stack.
 *
 * Same modelling class as HotSpot / 3D-ICE (and thus HotGauge): the die is
 * discretized into an nx x ny grid with an RC network per cell. The stack
 * has three levels:
 *
 *   silicon grid  --(TIM)-->  copper-spreader grid  -->  lumped heatsink
 *                                                        --> ambient
 *
 * Each silicon cell has lateral conductances to its 4 neighbors and a
 * vertical conductance through the TIM; spreader cells conduct laterally
 * (copper, fast spreading) and into the sink; the sink is one
 * high-capacitance node with a convection resistance to ambient.
 *
 * A thinned 7 nm-class die (default 100 um silicon) gives cell time
 * constants of ~50 us, which is what makes *advanced* hotspots: local
 * heating on the microsecond scale, far faster than sensor+DVFS loops.
 *
 * Transient integration is exact full-interval stepping: a 2-D DCT-II
 * diagonalizes the lateral coupling and each mode is advanced with a
 * closed-form matrix exponential (thermal/spectral_solver.hh,
 * DESIGN.md §9). One step costs the same at any dt, and the spectral
 * path is bitwise identical across hosts. The forward-Euler stencil
 * survives only as the reference it is checked against
 * (thermal/explicit_reference.hh): in checked builds every step is
 * shadow-run through it from the same state and power, and must land
 * within the reference's proven truncation bound for that step
 * (ExplicitReference::truncationBound) plus 1e-9 C of round-off. The
 * spectral step is exact up to round-off, so a larger divergence is a
 * fault and fails the check; the reference's result is never adopted.
 * Release builds compile the shadow out.
 *
 * The spectral solver owns the thermal state, in mode space, together
 * with the sink temperature; the grid's silicon and spreader fields are
 * views it publishes on first read after a step. Warm starts use the
 * solver's closed-form steady state in the same DCT basis (DESIGN.md
 * §9.7), published once.
 */

#pragma once

#include <memory>
#include <vector>

#include "common/types.hh"
#include "floorplan/floorplan.hh"
#include "thermal/spectral_solver.hh"

namespace boreas
{

class ExplicitReference;

/**
 * Legacy integrator selector with one value; nothing reads it. It
 * stays only until the benchmark recipe that assigns it is updated.
 */
enum class ThermalSolverKind
{
    Spectral,
};

/** Material and geometry parameters of the thermal stack. */
struct ThermalParams
{
    int nx = 64;                    ///< grid cells in x
    int ny = 64;                    ///< grid cells in y

    Meters siThickness = 150e-6;    ///< thinned die
    double siConductivity = 110.0;  ///< W/(m K)
    double siVolHeatCap = 1.636e6;  ///< J/(m^3 K)

    Meters timThickness = 25e-6;
    double timConductivity = 4.0;   ///< W/(m K)

    Meters spreaderThickness = 1.0e-3;
    double cuConductivity = 400.0;
    double cuVolHeatCap = 3.45e6;

    /** Spreader-to-sink spreading resistance (whole chip), K/W. */
    double sinkSpreadResistance = 0.22;
    /** Sink-to-ambient convection resistance, K/W. */
    double sinkAmbientResistance = 0.20;
    /** Lumped heatsink capacitance, J/K. */
    double sinkCapacitance = 150.0;

    Celsius ambient = kAmbient;

    /** Unused; see ThermalSolverKind. */
    ThermalSolverKind solver = ThermalSolverKind::Spectral;
};

/** The thermal solver. */
class ThermalGrid
{
  public:
    ThermalGrid(const Floorplan &floorplan,
                const ThermalParams &params = {});
    ~ThermalGrid();

    ThermalGrid(const ThermalGrid &) = delete;
    ThermalGrid &operator=(const ThermalGrid &) = delete;

    const ThermalParams &params() const { return params_; }
    int nx() const { return params_.nx; }
    int ny() const { return params_.ny; }
    int numCells() const { return params_.nx * params_.ny; }

    /**
     * The grid's lumped network constants, for benches and tests that
     * drive a raw SpectralThermalSolver or an ExplicitReference side by
     * side with this grid.
     */
    const SpectralNetwork &spectralNetwork() const { return net_; }

    /**
     * Set the power map for the next integration interval from per-unit
     * powers (indexed like Floorplan::units()); distributed over cells
     * by area overlap. Each covered cell is written once, from its
     * first unit share as 0.0 + p * f; a cell that straddles units then
     * adds its other shares in unit order, so every cell sums exactly
     * as a zero-fill and per-unit scatter would. Every call redoes the
     * map: leakage and residual noise move unit power every interval,
     * so a repeated vector is rare and costs one redundant ingest.
     */
    void setUnitPower(const std::vector<Watts> &unit_power);

    /** Power injected per silicon cell by the last setUnitPower, W. */
    const std::vector<Watts> &cellPower() const { return pCell_; }

    /**
     * Advance the transient by dt in one exact step. The per-dt
     * exponential coefficients are cached across calls — the
     * pipeline's fixed-stepLength pattern pays the setup once; checked
     * builds flag a dt change mid-run (between resets).
     */
    void step(Seconds dt);

    /**
     * Replace the whole thermal state with the exact steady state of
     * the current power map (SpectralThermalSolver::solveSteadyState,
     * DESIGN.md §9.7), publish both fields and start a new run for
     * the dt check. Used for warm-start initial conditions; no
     * reset() is needed first. The result depends only on the power
     * map, never on the prior state, and is bitwise reproducible
     * across hosts.
     */
    void solveSteadyState();

    /**
     * Load every node at a uniform temperature into the solver (two
     * forward transforms) and start a new run for the dt check.
     */
    void reset(Celsius uniform);

    /** Silicon-layer temperatures, row-major (y * nx + x). */
    const std::vector<Celsius> &siliconTemps() const
    {
        ensureSiliconCurrent();
        return tSi_;
    }

    /** Spreader-layer temperatures, row-major (y * nx + x). */
    const std::vector<Celsius> &spreaderTemps() const
    {
        ensureSpreaderCurrent();
        return tSp_;
    }

    Celsius maxSiliconTemp() const;

    /** Temperature of the silicon cell containing the point. */
    Celsius temperatureAt(const Point &p) const;

    /**
     * Area-weighted mean silicon temperature of each functional unit.
     * The returned reference aliases an internal scratch buffer that is
     * overwritten by the next unitTemps() call (hot-path allocation
     * avoidance); copy it if you need it past that.
     */
    const std::vector<Celsius> &unitTemps() const;

    /** Heatsink node temperature. */
    Celsius sinkTemp() const { return spectral_->sinkTemp(); }

    /** Total power currently injected, watts (diagnostics). */
    Watts totalPower() const;

    /** Cell center coordinates (for sensors / k-means placement). */
    Point cellCenter(int cell) const;

    /** Flat index of the cell containing the point. */
    int cellAt(const Point &p) const;

  private:
    /** Inverse-DCT the spectral state on demand (lazy publication). */
    void ensureSiliconCurrent() const;
    void ensureSpreaderCurrent() const;

    const Floorplan *floorplan_;
    ThermalParams params_;
    SpectralNetwork net_;

    std::vector<UnitCellMap> unitMaps_;
    std::vector<double> unitWeights_; ///< per unit: sum of its fractions

    /** One unit's area share of one cell. */
    struct CellShare
    {
        int cell;
        int unit;
        double fraction;
    };
    /**
     * Every cell's first (lowest-unit) share in row-major order, then
     * the further shares of straddling cells, by cell and unit.
     * Uncovered cells have none.
     */
    std::vector<CellShare> cellShares_;
    size_t firstShares_ = 0; ///< leading cellShares_ that start a cell

    // Real-space views of the solver's mode-space state, published
    // lazily inside const accessors (hence mutable).
    mutable std::vector<Celsius> tSi_;
    mutable std::vector<Celsius> tSp_;

    // Power injected per silicon cell, watts.
    std::vector<Watts> pCell_;

    /** dt of the last step() since reset() or solveSteadyState(); 0 =
     *  none yet. */
    Seconds lastDt_ = 0.0;

    /** Owner of the thermal state (modes and sink). */
    std::unique_ptr<SpectralThermalSolver> spectral_;
    mutable bool siValid_ = true;   ///< tSi_ current?
    mutable bool spValid_ = true;   ///< tSp_ current?

    /** Checked-build shadow integrator; null in release builds. */
    std::unique_ptr<ExplicitReference> shadow_;

    // Reused by unitTemps() so the per-telemetry-step pipeline loop
    // does not allocate.
    mutable std::vector<Celsius> unitTempsScratch_;
};

} // namespace boreas
