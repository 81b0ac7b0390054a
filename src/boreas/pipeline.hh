/**
 * @file
 * The closed-loop simulation pipeline (the HotGauge role in Fig. 3).
 *
 * Per 80 us telemetry step the pipeline:
 *   1. asks the workload for its current phase and the interval core
 *      model for the step's counters at the operating frequency;
 *   2. converts counters to per-unit power (with leakage at the current
 *      unit temperatures);
 *   3. advances the transient thermal grid;
 *   4. samples the sensor bank (delayed readings);
 *   5. evaluates MLTD + Hotspot-Severity on the silicon temperatures.
 *
 * Runs warm-start from the steady state of the workload's average power
 * at the baseline frequency, modelling a turbo window entered from
 * sustained operation.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "arch/core_model.hh"
#include "control/controller.hh"
#include "floorplan/skylake.hh"
#include "hotspot/severity.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"
#include "sensors/placement.hh"
#include "sensors/sensor.hh"
#include "thermal/thermal_grid.hh"
#include "workload/source.hh"

namespace boreas
{

class TraceRecorder;

/** Configuration of the full pipeline. */
struct PipelineConfig
{
    SkylakeParams floorplan{};
    ThermalParams thermal{};
    PowerModelParams power{};
    SeverityParams severity{};
    CoreParams core{};
    SensorParams sensors{};   ///< applied to every canonical sensor

    /**
     * Core whose canonical sensor sites the bank samples. Power always
     * follows the source: its core c drives floorplan core c.
     */
    int activeCore = 0;
    Seconds stepLength = kTelemetryStep;

    /** Warm-start at the steady state of this frequency's mean power. */
    bool warmStart = true;
    GHz warmStartFreq = kBaselineFrequency;
};

/** Everything observed in one telemetry step. */
struct StepRecord
{
    int step = 0;
    GHz frequency = 0.0;
    Volts voltage = 0.0;
    /** Telemetry of core 0 (the only core for single-core sources). */
    CounterSet counters;
    /**
     * Per-core telemetry when the source drives several cores
     * (coreCounters[0] duplicates `counters`); empty on single-core
     * runs, where `counters` is the whole story.
     */
    std::vector<CounterSet> coreCounters;
    Watts totalPower = 0.0;
    SeveritySnapshot severity;
    std::vector<Celsius> sensorReadings; ///< delayed
    std::vector<Celsius> sensorTrue;     ///< instantaneous at the sites

    /**
     * StateHasher digest (common/hash.hh) of this step's full
     * observable state (every core's counters and activity, power,
     * severity, sensors) plus the silicon temperature field — the
     * bitwise fingerprint the determinism audit compares across thread
     * counts (DESIGN.md §7). One layout for every core count.
     */
    uint64_t stateHash = 0;
};

/** Aggregate outcome of one complete run. */
struct RunResult
{
    std::vector<StepRecord> steps;
    std::vector<GHz> decidedFreqs; ///< frequency after each decision

    double averageFrequency() const;
    double peakSeverity() const;
    /** Steps whose max severity reached 1.0 (hotspot incursions). */
    int incursionSteps() const;
};

/** The coupled perf/power/thermal/severity simulator. */
class SimulationPipeline
{
  public:
    explicit SimulationPipeline(const PipelineConfig &config = {});

    const PipelineConfig &config() const { return config_; }
    const Floorplan &floorplan() const { return floorplan_; }
    const VFTable &vfTable() const { return vf_; }
    const SeverityModel &severityModel() const { return severity_; }
    const ThermalGrid &thermalGrid() const { return grid_; }
    const SensorBank &sensorBank() const { return sensors_; }

    /**
     * Begin a run driven by the given workload source. Replaces the
     * thermal state (the steady state of the warm power if configured,
     * else uniform ambient) and resets the sensors and the source
     * (reset(seed)). The source must outlive the run; it may drive up
     * to the floorplan's core count.
     *
     * @param warm_freq_override if > 0, warm-start at this frequency
     *        instead of config().warmStartFreq. Training traces use
     *        this to diversify initial thermal states.
     */
    void start(WorkloadSource &source, uint64_t seed,
               GHz warm_freq_override = 0.0);

    /**
     * Install a trace recorder tap (nullptr detaches). While set,
     * every start() reports the run parameters and every step()
     * records the per-core stimuli + pre-step Rng snapshots that
     * boreas-trace-v1 replay needs (workload/trace_io.hh).
     */
    void setTraceRecorder(TraceRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** The source driving the current run (nullptr before start()). */
    const WorkloadSource *source() const { return source_; }

    /** Advance one telemetry step at the given frequency. */
    StepRecord step(GHz freq);

    /**
     * Running FNV-1a combination of every stateHash since start().
     * Two runs of the same workload/seed/schedule must agree bitwise
     * at any thread count (common/parallel.hh determinism contract).
     */
    uint64_t runHash() const { return runHash_; }

    /**
     * Run `steps` telemetry steps at a fixed frequency (Fig. 2 sweeps,
     * dataset generation).
     */
    RunResult runConstantFrequency(WorkloadSource &source,
                                   uint64_t seed, GHz freq,
                                   int steps = kTraceSteps,
                                   GHz warm_freq_override = 0.0);

    /**
     * Closed-loop run: start(), controller.reset(), then
     * continueWithController() from initial_freq.
     */
    RunResult runWithController(WorkloadSource &source, uint64_t seed,
                                FrequencyController &controller,
                                GHz initial_freq,
                                int steps = kTraceSteps);

    /**
     * Advance an already-started run by `steps` telemetry steps under
     * closed-loop control, without resetting the controller or the
     * pipeline. The controller is consulted after every
     * kStepsPerDecision-th step, including the segment's last one.
     * *freq carries the operating frequency across calls: the segment
     * starts there and the last decision is written back, so chaining
     * segments whose lengths are multiples of kStepsPerDecision
     * reproduces one long runWithController() step stream (and
     * runHash) bit for bit. The fleet epoch barrier adjusts caps
     * between segments, so the carried frequency must already reflect
     * the die's own policy. Callers reset() the controller once before
     * the first segment.
     */
    RunResult continueWithController(FrequencyController &controller,
                                     GHz *freq, int steps);

    /**
     * Run with an arbitrary per-decision frequency schedule (one entry
     * per decision period; the last entry persists). Used to generate
     * training trajectories with frequency transitions.
     */
    RunResult runWithSchedule(WorkloadSource &source, uint64_t seed,
                              const std::vector<GHz> &schedule,
                              int steps = kTraceSteps,
                              GHz warm_freq_override = 0.0);

  private:
    /** Mean per-unit power of the source at a frequency (for warm
     *  start), probed on a fresh clone with ambient leakage. */
    std::vector<Watts> meanUnitPower(const WorkloadSource &source,
                                     uint64_t seed, GHz freq);

    PipelineConfig config_;
    Floorplan floorplan_;
    VFTable vf_;
    IntervalCore core_;
    PowerModel power_;
    ThermalGrid grid_;
    SeverityModel severity_;
    SensorBank sensors_;

    WorkloadSource *source_ = nullptr;  ///< driving the current run
    TraceRecorder *recorder_ = nullptr; ///< optional recording tap
    Rng sensorRng_{0};
    int stepIndex_ = 0;
    uint64_t runHash_ = 0;
};

} // namespace boreas
