#include "fleet/fleet_controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace boreas::fleet
{

FleetController::FleetController(const FleetControllerConfig &config)
    : config_(config)
{
    boreas_assert(config_.incursionGuardSteps >= 0,
                  "negative incursion guardband");
}

Watts
FleetController::estimatePowerAt(const DieEpochTelemetry &die,
                                 GHz freq) const
{
    if (die.avgFrequency <= 0.0 || die.avgPower <= 0.0)
        return 0.0;
    const Volts v_meas = vf_.voltage(vf_.clamp(die.avgFrequency));
    const Volts v_tgt = vf_.voltage(vf_.clamp(freq));
    const double ratio = (freq * v_tgt * v_tgt) /
                         (die.avgFrequency * v_meas * v_meas);
    return die.avgPower * ratio;
}

std::vector<GHz>
FleetController::assign(const std::vector<DieEpochTelemetry> &dies) const
{
    std::vector<GHz> caps(dies.size(), kMaxFrequency);

    Watts total = 0.0;
    for (const DieEpochTelemetry &die : dies) {
        if (die.ok)
            total += die.avgPower;
    }

    const bool over_budget =
        config_.globalBudget > 0.0 && total > config_.globalBudget;

    for (size_t i = 0; i < dies.size(); ++i) {
        const DieEpochTelemetry &die = dies[i];
        if (!die.ok)
            continue;
        GHz cap = kMaxFrequency;
        if (over_budget && die.avgPower > 0.0) {
            // Proportional share of the budget: heavy dies keep their
            // relative weight, so the cut lands fleet-wide instead of
            // starving whichever die happened to report first.
            const Watts share =
                config_.globalBudget * (die.avgPower / total);
            cap = kMinFrequency;
            for (const GHz f : vf_.frequencies()) {
                if (estimatePowerAt(die, f) <= share)
                    cap = std::max(cap, f);
            }
        }
        // Thermal guardband on top of the budget: a die that logged
        // incursions steps down regardless of how much power is left.
        for (int s = 0; s < config_.incursionGuardSteps &&
                        die.incursionSteps > 0;
             ++s)
            cap = vf_.stepDown(cap);
        caps[i] = std::clamp(cap, kMinFrequency, kMaxFrequency);
    }
    return caps;
}

} // namespace boreas::fleet
