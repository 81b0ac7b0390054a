/**
 * @file
 * The sharded fleet simulator (DESIGN.md §13): N independent dies —
 * each a full SimulationPipeline with its own workload source, seed
 * and ambient — advanced in lockstep control epochs over the shared
 * thread pool, with a FleetController assigning per-die frequency
 * caps from a global power budget at every epoch barrier.
 *
 * Execution model per epoch:
 *   1. fan out: every live die runs `epochSteps` telemetry steps
 *      closed-loop under its own (capped) controller, writing
 *      telemetry into its private slot;
 *   2. barrier: the pool join publishes every slot; the fleet
 *      controller reads the per-die epoch summaries serially in die
 *      order and assigns the next epoch's caps.
 *
 * Determinism: dies never share mutable state inside an epoch, the
 * barrier is serial, and the cap assignment is a pure function of the
 * telemetry vector — so the rollup (including every per-die runHash)
 * is bit-identical at any thread count. tests/test_fleet.cc and the
 * bench/fleet_throughput gate both assert this.
 *
 * A die whose workload spec fails to parse (or needs more cores than
 * the floorplan has) is reported per-die and skipped; the rest of the
 * fleet still runs.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "control/capped_controller.hh"
#include "fleet/fleet_controller.hh"

namespace boreas::fleet
{

/** One die of the fleet: what it runs and how it differs. */
struct FleetDieSpec
{
    /** Workload-source spec string (workload/registry.hh grammar). */
    std::string workload;
    uint64_t seed = 0;
    /** Per-die ambient (rack position, inlet temperature). */
    Celsius ambient = kAmbient;
};

/** Configuration of one fleet run. */
struct FleetConfig
{
    /** Shared per-die pipeline configuration; each die overrides the
     *  thermal ambient from its FleetDieSpec. */
    PipelineConfig base;
    std::vector<FleetDieSpec> dies;

    int epochs = 4;
    /** Steps per control epoch; must be a positive multiple of
     *  kStepsPerDecision so epoch chaining preserves the decision
     *  schedule (SimulationPipeline::continueWithController). */
    int epochSteps = 3 * kStepsPerDecision;

    FleetControllerConfig controller;
};

/**
 * Builds die i's frequency controller. Called once per die during
 * setup, from the calling thread (never a pool worker); the returned
 * controller is then driven concurrently with its siblings, so any
 * state shared between instances (e.g. a trained model) must be
 * read-only.
 */
using DieControllerFactory =
    std::function<std::unique_ptr<FrequencyController>(int die)>;

/** Outcome of one die across the whole fleet run. */
struct FleetDieResult
{
    int die = 0;
    bool ok = false;
    std::string error; ///< why the die never ran (when !ok)
    std::string workload;

    uint64_t runHash = 0; ///< pipeline fingerprint over every epoch
    int64_t steps = 0;
    int64_t incursionSteps = 0;
    double peakSeverity = 0.0;
    double meanFrequency = 0.0; ///< GHz over all steps
    double meanPower = 0.0;     ///< Watts over all steps
    GHz finalCap = 0.0;         ///< cap after the last barrier
};

/** Aggregate fleet telemetry (the BENCH_fleet.json headline). */
struct FleetRollup
{
    int dies = 0;
    int failedDies = 0;
    int64_t totalSteps = 0;
    int64_t incursionSteps = 0;
    /** incursionSteps / totalSteps (0 when nothing ran). */
    double aggregateIncursionRate = 0.0;
    double meanFrequency = 0.0; ///< step-weighted across live dies
    double meanPower = 0.0;     ///< step-weighted across live dies
    double peakSeverity = 0.0;
    /** Fleet-wide mean power per epoch (budget utilization curve). */
    std::vector<Watts> epochPower;
    /**
     * FNV-1a over every die's (index, ok, runHash, steps,
     * incursionSteps) in die order — the single fingerprint the
     * 1-vs-N-thread determinism gates compare.
     */
    uint64_t rollupHash = 0;

    std::vector<FleetDieResult> perDie;
};

/** Runs a fleet of pipelines under the global budget controller. */
class FleetSimulator
{
  public:
    FleetSimulator(FleetConfig config, DieControllerFactory factory);

    const FleetConfig &config() const { return config_; }

    /**
     * Execute the configured epochs and aggregate the rollup. Also
     * adds to the additive fleet.* counters in the metrics registry
     * (from the calling thread, after the final barrier); per-run
     * figures live in the returned rollup only, so repeated runs never
     * overwrite one another. May be called repeatedly; each call is
     * an independent run.
     */
    FleetRollup run();

  private:
    FleetConfig config_;
    DieControllerFactory factory_;
};

} // namespace boreas::fleet
