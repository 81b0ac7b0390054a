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
 * shadow-run through it and must agree within spectralShadowTolerance.
 *
 * A closed-form steady-state solve in the same DCT basis (one forward
 * and two inverse transforms) provides warm-start initial conditions.
 */

#pragma once

#include <memory>
#include <vector>

#include "common/types.hh"
#include "floorplan/floorplan.hh"

namespace boreas
{

class Dct2Plan;
class ExplicitReference;
class SpectralThermalSolver;
struct SpectralNetwork;

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

    /** Safety factor on the checked-build shadow reference's
     *  stability bound (ExplicitReference). */
    double dtSafety = 0.4;

    /** Unused; see ThermalSolverKind. */
    ThermalSolverKind solver = ThermalSolverKind::Spectral;

    /**
     * Checked builds only: shadow-run the forward-Euler reference
     * alongside every spectral step and fall back to its result if the
     * solutions diverge by more than spectralShadowTolerance anywhere.
     * Disable for deliberately-coarse test configs (e.g. second-scale
     * steps, where the *reference's* truncation error exceeds the
     * bound).
     */
    bool spectralShadowCheck = true;
    /**
     * Max abs per-step spectral-vs-explicit divergence, Celsius. The
     * default is dominated by the *explicit* reference's own O(h)
     * truncation on the fast post-power-step transient (measured
     * ~0.19 C at dtSafety 0.4 on fig7-class runs, decaying ~linearly
     * with the substep; the spectral step itself is within ~0.011 C of
     * a 16x-refined reference — DESIGN.md §9.5).
     */
    double spectralShadowTolerance = 0.25;
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
     * side with this grid (callers include thermal/spectral_solver.hh
     * for the definition).
     */
    SpectralNetwork spectralNetwork() const;

    /**
     * Set the power map for the next integration interval from per-unit
     * powers (indexed like Floorplan::units()); distributed over cells
     * by area overlap. A vector identical to the previous call's is
     * detected and skipped (controllers frequently hold power constant
     * across intervals).
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
     * Solve the steady state for the current power map exactly and load
     * it as the present thermal state. Used for warm-start initial
     * conditions. Closed form per DCT mode (DESIGN.md §9.7): the result
     * depends only on the power map, never on the prior state, and is
     * bitwise reproducible across hosts.
     */
    void solveSteadyState();

    /** Reset all nodes to a uniform temperature. */
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
    Celsius sinkTemp() const { return tSink_; }

    /** Total power currently injected, watts (diagnostics). */
    Watts totalPower() const;

    /** Cell center coordinates (for sensors / k-means placement). */
    Point cellCenter(int cell) const;

    /** Flat index of the cell containing the point. */
    int cellAt(const Point &p) const;

  private:
    void computeConstants();

    /** Inverse-DCT the spectral state on demand (lazy publication). */
    void ensureSiliconCurrent() const;
    void ensureSpreaderCurrent() const;

    const Floorplan *floorplan_;
    ThermalParams params_;

    std::vector<UnitCellMap> unitMaps_;

    // State. The temperature fields are mutable because the spectral
    // solver keeps its state in mode space and materializes these
    // buffers lazily inside const accessors.
    mutable std::vector<Celsius> tSi_;
    mutable std::vector<Celsius> tSp_;
    Celsius tSink_;

    // Power injected per silicon cell, watts.
    std::vector<Watts> pCell_;

    // Precomputed network constants.
    double gLatSi_ = 0.0;   ///< silicon lateral conductance, W/K
    double gVert_ = 0.0;    ///< silicon->spreader (TIM) per cell
    double gLatSp_ = 0.0;   ///< spreader lateral conductance
    double gSinkCell_ = 0.0;///< spreader cell -> sink
    double cSi_ = 0.0;      ///< silicon cell capacitance, J/K
    double cSp_ = 0.0;      ///< spreader cell capacitance

    /** dt of the last step() since reset(); 0 = none yet. */
    Seconds lastDt_ = 0.0;

    std::unique_ptr<SpectralThermalSolver> spectral_;
    bool modesValid_ = false;       ///< spectral mode state current?
    mutable bool siValid_ = true;   ///< tSi_ current?
    mutable bool spValid_ = true;   ///< tSp_ current?
    bool warnedShadowFallback_ = false;

    // Last accepted unit-power vector (identical-input skip).
    std::vector<Watts> unitPowerCache_;

    // Transform and mode-coefficient scratch for the closed-form
    // steady-state solve.
    std::unique_ptr<Dct2Plan> steadyDct_;
    std::vector<double> steadySi_;
    std::vector<double> steadySp_;

    /** Checked-build shadow integrator; null when the check is off. */
    std::unique_ptr<ExplicitReference> shadow_;

    // Reused by unitTemps() so the per-telemetry-step pipeline loop
    // does not allocate.
    mutable std::vector<Celsius> unitTempsScratch_;
};

} // namespace boreas
