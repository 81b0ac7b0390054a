/**
 * @file
 * Training-data generation (Sec. IV-A, Table II "Dataset").
 *
 * Instances are rows of the 78-attribute schema extracted every 80 us,
 * labeled with the *max severity over the next decision window* — the
 * quantity the controller needs predicted. Two kinds of trajectories are
 * generated per workload:
 *
 *   - constant-frequency traces at every VF grid point (the paper's
 *     sweep data): instances at every step;
 *   - random-walk traces whose frequency moves +/-250 MHz at decision
 *     boundaries: instances only where the label window has a single
 *     frequency. These cover the "hot state, different frequency"
 *     transitions the controller's what-if queries depend on.
 *
 * The same trajectories also yield the (counters, temp_now, freq,
 * temp_next) samples the Cochran-Reda baseline trains on.
 */

#pragma once

#include <vector>

#include "boreas/pipeline.hh"
#include "control/phase_thermal.hh"
#include "ml/dataset.hh"

namespace boreas
{

/** Knobs of the data-generation pass. */
struct DatasetConfig
{
    /** VF points for constant-frequency traces; empty = full grid. */
    std::vector<GHz> frequencies;
    /** Seeded repetitions of each constant-frequency trace. */
    int constSegments = 1;
    /** Random-walk traces per workload. */
    int walkSegments = 4;
    int traceSteps = kTraceSteps;
    /**
     * Label horizon: max severity over this many future steps ("the
     * severity of the future steps", Sec. IV). Two decision periods by
     * default: a boost must be sustainable, not merely survivable for
     * one period — this is what catches slow thermal ramps that a
     * one-period lookahead (plus a delayed sensor) would walk into.
     */
    int horizonSteps = 2 * kStepsPerDecision;
    /** Sensor feeding temperature_sensor_data. */
    int sensorIndex = kBestSensorIndex;
    uint64_t baseSeed = 1234;

    /**
     * Dynamic-energy augmentation: each trace is additionally generated
     * with the workload's thermal scale multiplied by these factors.
     * Synthetic workloads carry a per-binary switching-activity scale
     * that no counter exposes (as in real silicon, where identical
     * counter vectors can dissipate different power across binaries);
     * training across scales teaches the regressor that counters alone
     * cannot pin down power, so it must anchor on the temperature
     * telemetry — matching the paper's temperature-dominated model
     * (Table IV). {1.0} disables augmentation.
     */
    std::vector<double> intensityAugments{0.8, 1.0, 1.25};

    /**
     * Labels are clamped to this ceiling. Severity far above 1.0 is
     * all equally fatal — uncapped labels make the regressor spend
     * capacity ranking catastrophes and hurt accuracy near the
     * 0.9-1.0 decision band the controller actually operates in.
     */
    double labelClamp = 1.3;
};

/** Output of one data-generation pass. */
struct BuiltData
{
    Dataset severity;                         ///< full 78-column schema
    std::vector<PhaseThermalSample> phaseSamples;
};

/**
 * Generate training/evaluation data from any WorkloadSource
 * (synthetic, nas, mix, adversarial, trace replay). Group ids in the
 * dataset come from WorkloadSource::groupId() (the seedSalt of a
 * wrapped suite program, unique per workload), preserving the paper's
 * application-exclusive splits. Sources are cloned per trace job (with
 * cloneScaled() for the intensity augments) and never mutated.
 */
BuiltData buildTrainingData(SimulationPipeline &pipeline,
                            const std::vector<const WorkloadSource *> &
                                sources,
                            const DatasetConfig &config);

} // namespace boreas
