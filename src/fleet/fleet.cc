#include "fleet/fleet.hh"

#include <algorithm>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workload/registry.hh"

namespace boreas::fleet
{

namespace
{

/** Everything one die owns for the duration of a run. Slots are
 *  strictly per-task: the epoch fan-out writes only its own slot, and
 *  the pool join is the barrier that publishes them. */
struct DieSlot
{
    bool ok = false;
    std::string error;
    std::unique_ptr<WorkloadSource> source;
    std::unique_ptr<SimulationPipeline> pipeline;
    std::unique_ptr<CappedController> controller;
    GHz freq = 0.0; ///< carried operating frequency

    DieEpochTelemetry epoch; ///< summary of the last epoch

    // Whole-run accumulators.
    int64_t steps = 0;
    int64_t incursionSteps = 0;
    double freqSum = 0.0;
    double powerSum = 0.0;
    double peakSeverity = 0.0;
};

/** Summarize one epoch segment into the slot (called on the worker
 *  that ran the segment, before the barrier). */
void
accumulateEpoch(DieSlot &slot, const RunResult &segment)
{
    double power_sum = 0.0;
    double freq_sum = 0.0;
    double peak = 0.0;
    int incursions = 0;
    for (const StepRecord &s : segment.steps) {
        power_sum += s.totalPower;
        freq_sum += s.frequency;
        peak = std::max(peak, s.severity.maxSeverity);
        if (s.severity.maxSeverity >= 1.0)
            ++incursions;
    }
    const double n = static_cast<double>(segment.steps.size());
    slot.epoch.avgPower = n > 0.0 ? power_sum / n : 0.0;
    slot.epoch.avgFrequency = n > 0.0 ? freq_sum / n : 0.0;
    slot.epoch.peakSeverity = peak;
    slot.epoch.incursionSteps = incursions;
    slot.epoch.ok = true;

    slot.steps += static_cast<int64_t>(segment.steps.size());
    slot.incursionSteps += incursions;
    slot.freqSum += freq_sum;
    slot.powerSum += power_sum;
    slot.peakSeverity = std::max(slot.peakSeverity, peak);
}

} // namespace

FleetSimulator::FleetSimulator(FleetConfig config,
                               DieControllerFactory factory)
    : config_(std::move(config)), factory_(std::move(factory))
{
    boreas_assert(!config_.dies.empty(), "fleet has no dies");
    boreas_assert(config_.epochs > 0, "fleet needs at least one epoch");
    boreas_assert(config_.epochSteps > 0 &&
                      config_.epochSteps % kStepsPerDecision == 0,
                  "epochSteps (%d) must be a positive multiple of the "
                  "decision period (%d)",
                  config_.epochSteps, kStepsPerDecision);
    boreas_assert(factory_ != nullptr, "fleet needs a controller "
                                       "factory");
}

FleetRollup
FleetSimulator::run()
{
    const int n = static_cast<int>(config_.dies.size());
    std::vector<DieSlot> slots(n);

    // Setup is serial: spec parsing is cheap, and a die that fails
    // must be reported without disturbing its siblings. start()
    // panics on a core-count mismatch, so validate here instead.
    for (int i = 0; i < n; ++i) {
        const FleetDieSpec &die = config_.dies[i];
        DieSlot &slot = slots[i];
        std::string error;
        slot.source = tryMakeWorkloadSource(die.workload, &error);
        if (!slot.source) {
            slot.error = "bad workload spec '" + die.workload +
                         "': " + error;
            continue;
        }
        if (slot.source->numCores() > config_.base.floorplan.numCores) {
            slot.error = strfmt(
                "workload '%s' drives %d cores but the die has %d",
                die.workload.c_str(), slot.source->numCores(),
                config_.base.floorplan.numCores);
            slot.source.reset();
            continue;
        }
        slot.controller = std::make_unique<CappedController>(
            factory_(i), kMaxFrequency);
        slot.freq = kBaselineFrequency;
        slot.ok = true;
    }

    // Pipeline construction + warm start dominate setup cost; fan
    // them out. Each task touches only its slot.
    parallelForEach(0, n, 1, [&](int64_t i) {
        DieSlot &slot = slots[i];
        if (!slot.ok)
            return;
        PipelineConfig cfg = config_.base;
        cfg.thermal.ambient = config_.dies[i].ambient;
        slot.pipeline = std::make_unique<SimulationPipeline>(cfg);
        slot.controller->reset();
        slot.pipeline->start(*slot.source, config_.dies[i].seed);
    });

    const FleetController controller(config_.controller);
    FleetRollup rollup;
    rollup.epochPower.reserve(config_.epochs);

    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        parallelForEach(0, n, 1, [&](int64_t i) {
            DieSlot &slot = slots[i];
            if (!slot.ok) {
                slot.epoch = DieEpochTelemetry{};
                slot.epoch.ok = false;
                return;
            }
            const RunResult segment =
                slot.pipeline->continueWithController(
                    *slot.controller, &slot.freq, config_.epochSteps);
            accumulateEpoch(slot, segment);
        });

        // Epoch barrier: the pool join above published every slot;
        // read them serially in die order and move the caps.
        obs::ScopedTimer timer("stage.fleet_barrier");
        std::vector<DieEpochTelemetry> telemetry(slots.size());
        Watts epoch_power = 0.0;
        for (int i = 0; i < n; ++i) {
            telemetry[i] = slots[i].epoch;
            if (slots[i].ok)
                epoch_power += slots[i].epoch.avgPower;
        }
        rollup.epochPower.push_back(epoch_power);
        const std::vector<GHz> caps = controller.assign(telemetry);
        for (int i = 0; i < n; ++i) {
            if (!slots[i].ok)
                continue;
            slots[i].controller->setCap(caps[i]);
            slots[i].freq = std::min(slots[i].freq, caps[i]);
        }
    }

    // Aggregate the rollup (serial, die order).
    rollup.dies = n;
    rollup.perDie.reserve(slots.size());
    Fnv1a hasher;
    for (int i = 0; i < n; ++i) {
        const DieSlot &slot = slots[i];
        FleetDieResult r;
        r.die = i;
        r.ok = slot.ok;
        r.error = slot.error;
        r.workload = config_.dies[i].workload;
        if (slot.ok) {
            r.runHash = slot.pipeline->runHash();
            r.steps = slot.steps;
            r.incursionSteps = slot.incursionSteps;
            r.peakSeverity = slot.peakSeverity;
            const double steps = static_cast<double>(slot.steps);
            r.meanFrequency = steps > 0.0 ? slot.freqSum / steps : 0.0;
            r.meanPower = steps > 0.0 ? slot.powerSum / steps : 0.0;
            r.finalCap = slot.controller->cap();
        } else {
            ++rollup.failedDies;
        }
        rollup.totalSteps += r.steps;
        rollup.incursionSteps += r.incursionSteps;
        rollup.peakSeverity =
            std::max(rollup.peakSeverity, r.peakSeverity);
        rollup.meanFrequency += r.meanFrequency * static_cast<double>(r.steps);
        rollup.meanPower += r.meanPower * static_cast<double>(r.steps);
        hasher.add(static_cast<int64_t>(i));
        hasher.add(static_cast<int64_t>(r.ok ? 1 : 0));
        hasher.add(r.runHash);
        hasher.add(r.steps);
        hasher.add(r.incursionSteps);
        rollup.perDie.push_back(std::move(r));
    }
    if (rollup.totalSteps > 0) {
        const double total = static_cast<double>(rollup.totalSteps);
        rollup.aggregateIncursionRate =
            static_cast<double>(rollup.incursionSteps) / total;
        rollup.meanFrequency /= total;
        rollup.meanPower /= total;
    }
    rollup.rollupHash = hasher.digest();

    // Observability (main thread, after the final barrier): reads the
    // finished rollup, never feeds the simulation. Counters only: a
    // per-run gauge would keep just the last of several runs.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.add("fleet.runs");
    metrics.add("fleet.dies", static_cast<uint64_t>(rollup.dies));
    metrics.add("fleet.failed_dies",
                static_cast<uint64_t>(rollup.failedDies));
    metrics.add("fleet.steps",
                static_cast<uint64_t>(rollup.totalSteps));
    metrics.add("fleet.incursion_steps",
                static_cast<uint64_t>(rollup.incursionSteps));
    return rollup;
}

} // namespace boreas::fleet
