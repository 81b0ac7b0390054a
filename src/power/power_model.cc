#include "power/power_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace boreas
{

PowerModel::PowerModel(const Floorplan &floorplan,
                       const PowerModelParams &params)
    : floorplan_(&floorplan), params_(params)
{
}

namespace
{
constexpr double kNJ = 1e-9;
} // namespace

double
PowerModel::eventEnergy(UnitKind kind, const CounterSet &c) const
{
    // Per-event energies (J at vNom); the unit's total switched energy
    // for the interval. Coefficients are McPAT-inspired magnitudes tuned
    // so a high-IPC phase at 4 GHz draws a mid-teens-of-watts core.
    double e = 0.0;
    switch (kind) {
      case UnitKind::IFU:
        e = c[Counter::FetchedInstructions] * 0.20 * kNJ;
        break;
      case UnitKind::ICache:
        e = c[Counter::IcacheReadAccesses] * 0.40 * kNJ +
            c[Counter::IcacheReadMisses] * 2.0 * kNJ +
            c[Counter::ItlbTotalMisses] * 1.0 * kNJ;
        break;
      case UnitKind::BPU:
        e = c[Counter::PredictorLookups] * 0.25 * kNJ +
            c[Counter::BtbReadAccesses] * 0.10 * kNJ +
            c[Counter::BranchMispredictions] * 2.0 * kNJ;
        break;
      case UnitKind::Rename:
        e = c[Counter::RenameReads] * 0.04 * kNJ +
            c[Counter::RenameWrites] * 0.06 * kNJ +
            c[Counter::RatReadAccesses] * 0.025 * kNJ +
            c[Counter::RatWriteAccesses] * 0.04 * kNJ;
        break;
      case UnitKind::ROB:
        e = (c[Counter::RobReads] + c[Counter::RobWrites]) * 0.08 * kNJ;
        break;
      case UnitKind::Scheduler:
        e = c[Counter::UopsIssued] * 0.20 * kNJ +
            c[Counter::InstWindowWakeups] * 0.04 * kNJ +
            (c[Counter::InstWindowReads] +
             c[Counter::InstWindowWrites]) * 0.04 * kNJ;
        break;
      case UnitKind::RegFile:
        e = c[Counter::IntRegfileReads] * 0.10 * kNJ +
            c[Counter::IntRegfileWrites] * 0.14 * kNJ +
            c[Counter::FpRegfileReads] * 0.14 * kNJ +
            c[Counter::FpRegfileWrites] * 0.18 * kNJ;
        break;
      case UnitKind::IntALU:
        e = c[Counter::IaluAccesses] * 1.00 * kNJ +
            c[Counter::CdbAluAccesses] * 0.05 * kNJ;
        break;
      case UnitKind::MUL:
        e = c[Counter::MulAccesses] * 2.5 * kNJ +
            c[Counter::CdbMulAccesses] * 0.05 * kNJ;
        break;
      case UnitKind::FPU:
        e = c[Counter::FpuAccesses] * 1.9 * kNJ +
            c[Counter::CdbFpuAccesses] * 0.05 * kNJ;
        break;
      case UnitKind::LSU:
        e = (c[Counter::LoadQueueReads] +
             c[Counter::LoadQueueWrites]) * 0.10 * kNJ +
            (c[Counter::StoreQueueReads] +
             c[Counter::StoreQueueWrites]) * 0.10 * kNJ +
            (c[Counter::DcacheReadAccesses] +
             c[Counter::DcacheWriteAccesses]) * 0.12 * kNJ +
            c[Counter::DtlbTotalAccesses] * 0.04 * kNJ +
            c[Counter::DtlbTotalMisses] * 1.0 * kNJ;
        break;
      case UnitKind::DCache:
        e = c[Counter::DcacheReadAccesses] * 0.28 * kNJ +
            c[Counter::DcacheWriteAccesses] * 0.34 * kNJ +
            (c[Counter::DcacheReadMisses] +
             c[Counter::DcacheWriteMisses]) * 0.9 * kNJ;
        break;
      case UnitKind::L2:
        e = (c[Counter::L2ReadAccesses] +
             c[Counter::L2WriteAccesses]) * 0.9 * kNJ +
            (c[Counter::L2ReadMisses] +
             c[Counter::L2WriteMisses]) * 1.2 * kNJ;
        break;
      case UnitKind::L3:
        e = c[Counter::L3ReadAccesses] * 2.5 * kNJ +
            c[Counter::L3ReadMisses] * 1.2 * kNJ;
        break;
      case UnitKind::SoC:
        e = (c[Counter::MemoryReads] +
             c[Counter::MemoryWrites]) * 5.0 * kNJ;
        break;
      default:
        break;
    }
    return e;
}

Watts
PowerModel::clockPower(UnitKind kind)
{
    // Full-duty clock/pipeline-latch power at fRef and vNom.
    switch (kind) {
      case UnitKind::IFU: return 0.50;
      case UnitKind::ICache: return 0.30;
      case UnitKind::BPU: return 0.20;
      case UnitKind::Rename: return 0.30;
      case UnitKind::ROB: return 0.35;
      case UnitKind::Scheduler: return 0.50;
      case UnitKind::RegFile: return 0.40;
      case UnitKind::IntALU: return 0.50;
      case UnitKind::MUL: return 0.30;
      case UnitKind::FPU: return 0.80;
      case UnitKind::LSU: return 0.50;
      case UnitKind::DCache: return 0.40;
      case UnitKind::L2: return 0.30;
      case UnitKind::L3: return 0.80;
      case UnitKind::SoC: return 1.00;
      default: return 0.0;
    }
}

Watts
PowerModel::idlePower(UnitKind kind)
{
    // Imperfect clock gating: uncore stays mostly on, core units retain
    // a residual clock load.
    switch (kind) {
      case UnitKind::L3: return 0.40;
      case UnitKind::SoC: return 0.60;
      default: return 0.12 * clockPower(kind);
    }
}

double
PowerModel::dutyOf(UnitKind kind, const CounterSet &c)
{
    const double cycles = std::max(1.0, c[Counter::TotalCycles]);
    const double busy = c[Counter::BusyCycles] / cycles;
    switch (kind) {
      case UnitKind::IntALU: return c[Counter::AluDutyCycle];
      case UnitKind::MUL: return c[Counter::MulDutyCycle];
      case UnitKind::FPU: return c[Counter::FpuDutyCycle];
      case UnitKind::IFU: return c[Counter::IfuDutyCycle];
      case UnitKind::ICache: return c[Counter::MemManUIDutyCycle];
      case UnitKind::BPU: return c[Counter::IfuDutyCycle];
      case UnitKind::LSU: return c[Counter::LsuDutyCycle];
      case UnitKind::DCache: return c[Counter::LsuDutyCycle];
      case UnitKind::L2: return 0.5 * c[Counter::LsuDutyCycle];
      case UnitKind::L3: return 0.3 * c[Counter::MemManUDDutyCycle];
      case UnitKind::SoC: return 0.3 * c[Counter::MemManUDDutyCycle];
      default: return busy;
    }
}

std::vector<Watts>
PowerModel::unitPowerMulti(
    const std::vector<const CounterSet *> &core_counters,
    const std::vector<double> &intensities, GHz freq, Volts volts,
    const std::vector<Celsius> &unit_temps, Seconds dt) const
{
    const auto &units = floorplan_->units();
    boreas_assert(unit_temps.size() == units.size(),
                  "unit temp vector size %zu != %zu units",
                  unit_temps.size(), units.size());
    boreas_assert(intensities.size() == core_counters.size(),
                  "intensity vector size %zu != %zu cores",
                  intensities.size(), core_counters.size());
    boreas_assert(dt > 0.0 && freq > 0.0 && volts > 0.0,
                  "bad operating point");

    const double vsq = (volts / params_.vNom) * (volts / params_.vNom);
    const double fscale = freq / params_.fRef;
    const int ncores = static_cast<int>(core_counters.size());

    std::vector<Watts> power(units.size(), 0.0);
    for (size_t i = 0; i < units.size(); ++i) {
        const FunctionalUnit &u = units[i];
        double p = 0.0;

        if (u.coreId >= 0) {
            // Per-core unit: driven by its own core's telemetry.
            const CounterSet *c = u.coreId < ncores
                ? core_counters[u.coreId] : nullptr;
            if (c) {
                const double intensity = intensities[u.coreId];
                p += eventEnergy(u.kind, *c) * intensity *
                    params_.activityScale * vsq / dt;
                p += dutyOf(u.kind, *c) * clockPower(u.kind) * vsq *
                    fscale * intensity;
            }
        } else {
            // Shared uncore: every active core's traffic switches it,
            // while its clock tree runs at the busiest requester's
            // duty rather than the sum (it cannot exceed full duty).
            double duty = 0.0;
            for (int core = 0; core < ncores; ++core) {
                const CounterSet *c = core_counters[core];
                if (!c)
                    continue;
                p += eventEnergy(u.kind, *c) * intensities[core] *
                    params_.activityScale * vsq / dt;
                duty = std::max(duty,
                                dutyOf(u.kind, *c) * intensities[core]);
            }
            p += duty * clockPower(u.kind) * vsq * fscale;
        }
        p += idlePower(u.kind) * vsq * fscale;
        p += leakagePower(static_cast<int>(i), unit_temps[i], volts);

        power[i] = p;
    }
    return power;
}

Watts
PowerModel::leakagePower(int unit_idx, Celsius temp, Volts volts) const
{
    const FunctionalUnit &u = floorplan_->unit(unit_idx);
    const double area = u.rect.area();
    const Celsius t = std::min(temp, params_.leakTmax);
    return area * params_.leakDensity * (volts / params_.vNom) *
        std::exp(params_.leakBeta * (t - params_.leakTref));
}

Watts
PowerModel::totalPower(const std::vector<Watts> &unit_power)
{
    Watts total = 0.0;
    for (Watts p : unit_power)
        total += p;
    return total;
}

} // namespace boreas
