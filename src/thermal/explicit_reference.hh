/**
 * @file
 * Forward-Euler reference integrator for the RC thermal stack.
 *
 * ThermalGrid advances its network exactly with the spectral solver
 * (thermal/spectral_solver.hh). This class advances the same network
 * (SpectralNetwork) with the classic explicit stencil instead: every
 * node moves by h/C times its net inflow, in substeps bounded by the
 * network's stability limit times a safety factor. Its error is the
 * forward-Euler O(h) truncation, so it is the yardstick the spectral
 * path is checked against, never a production integrator. It has three
 * users: the checked-build shadow run in ThermalGrid::step, the tests,
 * and bench/thermal_solver.
 *
 * The stencil keeps one fixed per-node floating-point operation order
 * and is compiled for the baseline target only (no target clones), so
 * its trajectories are bitwise reproducible across hosts.
 *
 * The state API mirrors SpectralThermalSolver's: load a real-space
 * state, set the per-cell power map, step, read the fields. A fresh
 * instance starts at ambient with zero power.
 */

#pragma once

#include <vector>

#include "common/types.hh"
#include "thermal/spectral_solver.hh"

namespace boreas
{

/** Explicit forward-Euler integrator (see file comment). */
class ExplicitReference
{
  public:
    ExplicitReference(const SpectralNetwork &net, double dt_safety);

    /** Largest stable substep, with the safety factor applied. */
    Seconds maxStableDt() const { return dtMax_; }

    /** Copy a real-space state (row-major fields and the sink node). */
    void loadState(const std::vector<Celsius> &si,
                   const std::vector<Celsius> &sp, Celsius sink);

    /** Copy the per-cell power map driving subsequent steps. */
    void setPower(const std::vector<Watts> &cell_power);

    /**
     * Advance by dt in equal substeps no longer than maxStableDt().
     * The per-dt substep constants are cached while dt stays fixed.
     */
    void step(Seconds dt);

    /** Silicon-layer temperatures, row-major (y * nx + x). */
    const std::vector<Celsius> &silicon() const { return si_; }

    /** Spreader-layer temperatures, row-major (y * nx + x). */
    const std::vector<Celsius> &spreader() const { return sp_; }

    /** Heatsink node temperature. */
    Celsius sinkTemp() const { return sink_; }

  private:
    /** Cached per-dt substep constants (hot-path hoist). */
    struct StepPlan
    {
        Seconds dt = 0.0;
        int substeps = 0;
        double invCsi = 0.0;
        double invCsp = 0.0;
        double hOverCsink = 0.0;
    };

    void rebuildPlan(Seconds dt);

    SpectralNetwork net_;
    Seconds dtMax_ = 0.0;
    StepPlan plan_;

    std::vector<Celsius> si_;
    std::vector<Celsius> sp_;
    Celsius sink_ = 0.0;
    std::vector<Watts> power_;

    // Substep double buffers, swapped with the state each substep.
    std::vector<double> newSi_;
    std::vector<double> newSp_;
};

} // namespace boreas
