/**
 * @file
 * The layer walk: one telemetry step of the closed loop, rebuilt from
 * each layer's public API so every layer call can be timed from outside.
 *
 * The walk owns its own IntervalCore, PowerModel, ThermalGrid, SensorBank
 * and SeverityModel, built from the same PipelineConfig as the pipeline
 * it shadows, and calls them in the order SimulationPipeline::step does:
 *
 *   workload.stimulus -> arch.step -> power.unit_power -> thermal.ingest
 *   -> thermal.step -> thermal.publish -> sensors.sample
 *   -> hotspot.severity -> workload.advance
 *
 * One span per call, all children of a `walk.step` root span. The
 * thermal publish span is the first siliconTemps() read after the step,
 * so the spectral solver's lazy inverse transform is charged to the
 * thermal layer rather than to whichever layer reads temperatures first.
 * The power span includes the unitTemps() read its leakage term needs.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/core_model.hh"
#include "boreas/pipeline.hh"
#include "common/rng.hh"
#include "floorplan/floorplan.hh"
#include "hotspot/severity.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"
#include "sensors/sensor.hh"
#include "spans.hh"
#include "thermal/thermal_grid.hh"
#include "workload/source.hh"

namespace perfbench
{

/** What the fidelity check compares against SimulationPipeline::step. */
struct WalkStep
{
    double maxSeverity = 0.0;
    double totalPower = 0.0;
};

class LayerWalk
{
  public:
    /** `log` may be null (no spans recorded). */
    LayerWalk(const boreas::PipelineConfig &config, SpanLog *log);

    /**
     * Start on a private clone of `source`. A cold start leaves the
     * grid at ambient; a warm start probes the clone's mean unit power
     * over 64 steps at the baseline frequency, loads it and solves the
     * steady state (span `thermal.steady`).
     */
    void start(const boreas::WorkloadSource &source, uint64_t seed,
               bool warm);

    /** One telemetry step at `freq`. */
    WalkStep step(boreas::GHz freq);

  private:
    std::vector<boreas::Watts> meanUnitPower(uint64_t seed,
                                             boreas::GHz freq) const;

    boreas::PipelineConfig config_;
    boreas::Floorplan floorplan_;
    boreas::VFTable vf_;
    boreas::IntervalCore core_;
    boreas::PowerModel power_;
    boreas::ThermalGrid grid_;
    boreas::SeverityModel severity_;
    boreas::SensorBank sensors_;
    std::unique_ptr<boreas::WorkloadSource> source_;
    boreas::Rng sensorRng_{0};
    SpanLog *log_;
};

} // namespace perfbench
