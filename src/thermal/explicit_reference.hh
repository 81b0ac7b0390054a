/**
 * @file
 * Forward-Euler reference integrator for the RC thermal stack.
 *
 * ThermalGrid advances its network exactly with the spectral solver
 * (thermal/spectral_solver.hh). This class advances the same network
 * (SpectralNetwork) with the classic explicit stencil instead: every
 * node moves by h/C times its net inflow, in substeps bounded by the
 * network's stability limit (the tightest C / sum(G) over silicon,
 * spreader and sink nodes) times a safety factor. Its error is the
 * forward-Euler O(h) truncation, so it is the yardstick the spectral
 * path is checked against, never a production integrator. It has three
 * users: the checked-build shadow run in ThermalGrid::step, the tests,
 * and bench/thermal_solver.
 *
 * truncationBound() proves how far one step can land from the exact
 * solution, so a spectral step (exact up to round-off) that lands
 * further away is a fault, never the reference's truncation.
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
    /** Safety factor the checked-build shadow run substeps at. */
    static constexpr double kShadowDtSafety = 0.4;

    /** `dt_safety` in (0, 1]: the truncation bound's proof needs it. */
    ExplicitReference(const SpectralNetwork &net, double dt_safety);

    /** Largest stable substep, with the safety factor applied. */
    Seconds maxStableDt() const { return dtMax_; }

    /** Copy a real-space state (row-major fields and the sink node). */
    void loadState(const std::vector<Celsius> &si,
                   const std::vector<Celsius> &sp, Celsius sink);

    /** Copy the per-cell power map driving subsequent steps. */
    void setPower(const std::vector<Watts> &cell_power);

    /** Advance by dt in equal substeps no longer than maxStableDt(). */
    void step(Seconds dt);

    /**
     * Proven bound on the max-norm distance between what step(dt)
     * would produce from the loaded state and power and the exact
     * solution of the same network: (h dt / 2) ||A (A x + b)||_inf for
     * the network matrix A, state x, drive b and substep h. Proof:
     * below the stability limit I + hA is non-negative with row sums
     * <= 1, so the substeps' local errors (each <= h^2/2 max ||x''||)
     * add without growing; and x''(t) = e^{At} x''(0), where e^{At}
     * never expands the max-norm, so x'' is largest at the start.
     * Computes x' and x'' in member scratch, so it allocates nothing.
     */
    double truncationBound(Seconds dt);

    /** Silicon-layer temperatures, row-major (y * nx + x). */
    const std::vector<Celsius> &silicon() const { return si_; }

    /** Spreader-layer temperatures, row-major (y * nx + x). */
    const std::vector<Celsius> &spreader() const { return sp_; }

    /** Heatsink node temperature. */
    Celsius sinkTemp() const { return sink_; }

  private:
    /** Equal substeps no longer than maxStableDt() that cover dt. */
    int substeps(Seconds dt) const;

    SpectralNetwork net_;
    Seconds dtMax_ = 0.0;

    std::vector<Celsius> si_;
    std::vector<Celsius> sp_;
    Celsius sink_ = 0.0;
    std::vector<Watts> power_;

    // Substep double buffers, swapped with the state each substep;
    // truncationBound() stores x' in them, since step() overwrites them
    // before reading.
    std::vector<double> newSi_;
    std::vector<double> newSp_;
    // truncationBound()'s x'' and the zero drive it is computed under.
    std::vector<double> curvSi_;
    std::vector<double> curvSp_;
    std::vector<Watts> noPower_;
};

} // namespace boreas
