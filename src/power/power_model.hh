/**
 * @file
 * McPAT-style per-functional-unit power model.
 *
 * Per telemetry interval, each unit's power is
 *
 *   P_unit = sum_events E_event * (V/Vnom)^2 / dt     (event dynamic)
 *          + duty * P_clk(unit) * (V/Vnom)^2 * f/fRef (clock/pipeline)
 *          + P_idle(unit) * (V/Vnom)^2 * f/fRef       (always-on clocking)
 *          + A_unit * leakDensity * (V/Vnom)
 *                   * exp(beta * (T_unit - Tref))     (leakage)
 *
 * The leakage term closes the electrothermal loop: hot units leak more,
 * which heats them further — part of what makes advanced hotspots fast.
 */

#pragma once

#include <vector>

#include "arch/counters.hh"
#include "common/types.hh"
#include "floorplan/floorplan.hh"

namespace boreas
{

/** Tunable coefficients of the power model. */
struct PowerModelParams
{
    Volts vNom = 1.0;          ///< voltage at which energies are specified
    GHz fRef = 4.0;            ///< frequency normalizing clock power

    /** Leakage power density at Tref and vNom, W/m^2 of unit area. */
    double leakDensity = 0.10e6;
    /** Exponential leakage-temperature coefficient, 1/K. */
    double leakBeta = 0.018;
    Celsius leakTref = kAmbient;
    /** Leakage-model validity ceiling (clamps the exponential). */
    Celsius leakTmax = 125.0;

    /** Global multiplier on all event (activity) energies. */
    double activityScale = 0.45;
};

/**
 * Computes per-functional-unit power for active cores, idle cores and
 * uncore from one interval's telemetry.
 */
class PowerModel
{
  public:
    PowerModel(const Floorplan &floorplan,
               const PowerModelParams &params = {});

    const PowerModelParams &params() const { return params_; }

    /**
     * Power of every floorplan unit for one interval.
     *
     * @param core_counters core c's telemetry for the interval, or
     *        nullptr if the core idles; cores past its size idle
     * @param intensities residual (counter-invisible) energy-per-event
     *        multiplier of each core for the interval; 1.0 nominal.
     *        Workload-level activity scaling is already inside the
     *        counters.
     * @param freq core clock (GHz)
     * @param volts supply voltage
     * @param unit_temps current temperature of each unit (for leakage)
     * @param dt interval length, seconds
     * @return watts per unit, indexed like Floorplan::units()
     *
     * Per-core units draw from their own core's telemetry. Shared
     * uncore units accumulate every active core's event energy, and
     * their clock duty saturates at the busiest requester.
     */
    std::vector<Watts>
    unitPowerMulti(const std::vector<const CounterSet *> &core_counters,
                   const std::vector<double> &intensities, GHz freq,
                   Volts volts, const std::vector<Celsius> &unit_temps,
                   Seconds dt) const;

    /** Leakage power of one unit at the given temperature and voltage. */
    Watts leakagePower(int unit_idx, Celsius temp, Volts volts) const;

    /** Sum of a unit-power vector (total chip power). */
    static Watts totalPower(const std::vector<Watts> &unit_power);

  private:
    /** Event dynamic energy (J) accumulated into one unit's kind. */
    double eventEnergy(UnitKind kind, const CounterSet &c) const;

    /** Full-duty clock/pipeline power of a unit kind at fRef/vNom. */
    static Watts clockPower(UnitKind kind);

    /** Always-on (idle-clocked) power of a unit kind at fRef/vNom. */
    static Watts idlePower(UnitKind kind);

    /** Activity duty factor of a unit kind from the counter set. */
    static double dutyOf(UnitKind kind, const CounterSet &c);

    const Floorplan *floorplan_;
    PowerModelParams params_;
};

} // namespace boreas
