/**
 * @file
 * Spectral exponential integrator for the RC thermal stack
 * (DESIGN.md §9).
 *
 * The lateral Laplacian of each layer is diagonalized by a 2-D DCT-II
 * (common/dct.hh), which matches the forward-Euler reference
 * stencil's Neumann boundaries exactly. In mode space the semi-discrete
 * network decouples:
 *
 *   - every mode (kx, ky) != (0, 0) is a 2-state linear ODE over the
 *     silicon and spreader coefficients, driven by the power mode;
 *   - mode (0, 0) — the field sums — additionally couples to the
 *     lumped heatsink node and its ambient leak, a 3-state ODE.
 *
 * Each small system is advanced EXACTLY over any dt with its matrix
 * exponential:  z(t+dt) = E z(t) + F b,  E = exp(A dt),
 * F = A^-1 (E - I); the coefficients are precomputed per dt and reused
 * while dt stays constant (the only pattern the pipeline produces).
 * One step is therefore a cheap per-mode SoA sweep with no stability
 * limit — none of the forward-Euler reference's substeps.
 *
 * State residency: the solver keeps its state in mode space. Callers
 * load real-space state with loadState(), push power maps through
 * setPower() (forward DCT), step() as often as they like, and pay the
 * inverse DCT only when a real-space field is actually read
 * (realizeSilicon / realizeSpreader). ThermalGrid tracks the validity
 * flags.
 *
 * Instances are single-threaded (they own DCT scratch); one per grid.
 */

#pragma once

#include <vector>

#include "common/dct.hh"
#include "common/types.hh"

namespace boreas
{

/** The lumped network constants of one ThermalGrid, per cell. */
struct SpectralNetwork
{
    int nx = 0;
    int ny = 0;
    double gLatSi = 0.0;    ///< silicon lateral conductance, W/K
    double gLatSp = 0.0;    ///< spreader lateral conductance
    double gVert = 0.0;     ///< silicon->spreader (TIM) per cell
    double gSinkCell = 0.0; ///< spreader cell -> sink
    double cSi = 0.0;       ///< silicon cell capacitance, J/K
    double cSp = 0.0;       ///< spreader cell capacitance
    double sinkCapacitance = 0.0;
    double sinkAmbientResistance = 0.0;
    Celsius ambient = 0.0;
};

/** Mode-space exact integrator (see file comment). */
class SpectralThermalSolver
{
  public:
    explicit SpectralThermalSolver(const SpectralNetwork &net);

    /** Forward-DCT a real-space state into the mode-space state. */
    void loadState(const std::vector<Celsius> &si,
                   const std::vector<Celsius> &sp, Celsius sink);

    /** Forward-DCT the per-cell power map driving subsequent steps. */
    void setPower(const std::vector<Watts> &cell_power);

    /** Advance the mode-space state exactly by dt. */
    void step(Seconds dt);

    /** Inverse-DCT the silicon modes into `si` (row-major). */
    void realizeSilicon(std::vector<Celsius> &si);

    /** Inverse-DCT the spreader modes into `sp` (row-major). */
    void realizeSpreader(std::vector<Celsius> &sp);

    /** Heatsink node temperature (always current; no DCT involved). */
    Celsius sinkTemp() const { return tSink_; }

    /** The dt the cached exponential plan was built for (0 = none). */
    Seconds planDt() const { return planDt_; }

  private:
    void buildPlan(Seconds dt);

    SpectralNetwork net_;
    int n_ = 0;          ///< nx * ny modes
    double sqrtN_ = 0.0; ///< balance factor for the sink variable
    Dct2Plan dct_;

    /** Per-axis Laplacian eigenvalues; lam(kx,ky) = lamX_ + lamY_. */
    std::vector<double> lamX_;
    std::vector<double> lamY_;

    // Mode-space state and drive, all double. Mode 0 (the field sums)
    // rides through the sweep unchanged and is advanced in place by
    // the 3x3 sink-coupled update.
    std::vector<double> zSi_;
    std::vector<double> zSp_;
    std::vector<double> phat_;
    Celsius tSink_ = 0.0;

    // Cached per-dt exponential coefficients, SoA over modes != 0:
    // (zsi', zsp') = E * (zsi, zsp) + phat * (G1, G2). The plan is
    // kept lean:
    //
    //   - E is reconstructed per mode from two streamed arrays plus
    //     cheap L1-resident data: E11 = ch + sh * dd,
    //     E22 = ch - sh * dd, E12 = sh * a12, E21 = sh * a21, where
    //     a12/a21 are mode-independent and dd = ddBase_ + ddLam_ * lam
    //     is affine in the eigenvalue (rebuilt from lamX_/lamY_);
    //   - the forcing phat * G is formed in the sweep, since the
    //     pipeline sets a new power map before nearly every step.
    Seconds planDt_ = 0.0;
    double offDiag12_ = 0.0; ///< a12 = gVert / cSi
    double offDiag21_ = 0.0; ///< a21 = gVert / cSp
    double ddBase_ = 0.0;    ///< dd at lam = 0
    double ddLam_ = 0.0;     ///< d(dd)/d(lam)
    std::vector<double> ch_, sh_, g1_, g2_;
    // Mode 0 (sums + balanced sink w = sqrt(n) * tSink):
    // z0' = E0 z0 + phat0 * c0 + d0.
    double e0_[9] = {};
    double c0_[3] = {};
    double d0_[3] = {};
};

} // namespace boreas
