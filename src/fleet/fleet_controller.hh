/**
 * @file
 * FleetController: the per-epoch global power-budget policy sitting
 * above the per-die Boreas controllers (DESIGN.md §13).
 *
 * Each control epoch the fleet barrier hands the controller one
 * telemetry summary per die; the controller returns one frequency cap
 * per die. Dies whose aggregate power fits the budget keep an open cap
 * (the die's own thermal policy governs); when the fleet oversubscribes
 * the budget, each die's share is its proportional slice and the cap is
 * the highest grid frequency whose estimated power fits that share.
 * Dies that logged hotspot incursions during the epoch are additionally
 * stepped down as a guardband, budget or not.
 *
 * The assignment is a pure function of the telemetry vector, evaluated
 * serially at the epoch barrier in die order — determinism follows
 * from the pipeline's own contract, nothing here depends on thread
 * count or timing.
 */

#pragma once

#include <vector>

#include "common/types.hh"
#include "power/vf_table.hh"

namespace boreas::fleet
{

/** Knobs of the global budget policy. */
struct FleetControllerConfig
{
    /** Fleet-wide power budget; <= 0 means unlimited (caps stay at
     *  kMaxFrequency unless an incursion guardband pulls one down).
     *  Caps range over the VF grid, kMinFrequency to kMaxFrequency. */
    Watts globalBudget = 0.0;
    /** VF steps (250 MHz each) a die is pulled down per epoch in
     *  which it logged at least one hotspot incursion. */
    int incursionGuardSteps = 1;
};

/** One die's telemetry summary over the last control epoch. */
struct DieEpochTelemetry
{
    Watts avgPower = 0.0;      ///< mean total die power over the epoch
    GHz avgFrequency = 0.0;    ///< mean applied frequency
    double peakSeverity = 0.0; ///< max hotspot severity seen
    int incursionSteps = 0;    ///< steps at severity >= 1.0
    bool ok = true;            ///< false: die failed setup, skip it
};

/** Assigns per-die frequency caps from a global power budget. */
class FleetController
{
  public:
    explicit FleetController(const FleetControllerConfig &config);

    const FleetControllerConfig &config() const { return config_; }

    /**
     * One cap per telemetry entry (failed dies get kMaxFrequency,
     * unused).
     * Pure: identical telemetry vectors produce identical caps.
     */
    std::vector<GHz>
    assign(const std::vector<DieEpochTelemetry> &dies) const;

    /**
     * Power the die is estimated to draw at `freq`, scaling the
     * measured (avgFrequency, avgPower) point by the dynamic-power
     * ratio f * V(f)^2 (leakage folded in — a deliberate, conservative
     * overestimate when capping down). Exposed for tests.
     */
    Watts estimatePowerAt(const DieEpochTelemetry &die, GHz freq) const;

  private:
    FleetControllerConfig config_;
    VFTable vf_;
};

} // namespace boreas::fleet
