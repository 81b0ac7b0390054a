#include "walk.hh"

#include <cmath>
#include <string>

#include "floorplan/skylake.hh"
#include "sensors/placement.hh"

namespace perfbench
{

using namespace boreas;

LayerWalk::LayerWalk(const PipelineConfig &config, SpanLog *log)
    : config_(config),
      floorplan_(buildSkylakeFloorplan(config.floorplan)),
      core_(config.core),
      power_(floorplan_, config.power),
      grid_(floorplan_, config.thermal),
      severity_(config.severity),
      log_(log)
{
    const auto sites = canonicalSensorSites(floorplan_, config_.activeCore);
    for (size_t i = 0; i < sites.size(); ++i) {
        sensors_.addSensor("walk" + std::to_string(i), sites[i],
                           config_.sensors);
    }
}

std::vector<Watts>
LayerWalk::meanUnitPower(uint64_t seed, GHz freq) const
{
    constexpr int kProbeSteps = 64;
    const std::unique_ptr<WorkloadSource> probe = source_->clone();
    probe->reset(seed);
    const int ncores = probe->numCores();
    const Volts volts = vf_.voltage(freq);
    const std::vector<Celsius> warm_temps(floorplan_.numUnits(),
                                          config_.thermal.ambient + 20.0);
    const std::vector<double> nominal(ncores, 1.0);
    std::vector<Watts> acc(floorplan_.numUnits(), 0.0);
    for (int s = 0; s < kProbeSteps; ++s) {
        std::vector<CounterSet> counters(ncores);
        std::vector<const CounterSet *> ptrs(ncores, nullptr);
        for (int c = 0; c < ncores; ++c) {
            const CoreStimulus stim = probe->stimulus(c);
            if (!stim.active)
                continue;
            counters[c] = core_.step(stim.phase, freq, config_.stepLength,
                                     probe->noiseRng(c));
            ptrs[c] = &counters[c];
        }
        const std::vector<Watts> p = power_.unitPowerMulti(
            ptrs, nominal, freq, volts, warm_temps, config_.stepLength);
        for (size_t i = 0; i < acc.size(); ++i)
            acc[i] += p[i];
        probe->advance(config_.stepLength);
    }
    for (Watts &w : acc)
        w /= kProbeSteps;
    return acc;
}

void
LayerWalk::start(const WorkloadSource &source, uint64_t seed, bool warm)
{
    source_ = source.clone();
    grid_.reset(config_.thermal.ambient);
    if (warm) {
        ScopedSpan probe(log_, "walk.warm_probe");
        grid_.setUnitPower(meanUnitPower(seed, config_.warmStartFreq));
        ScopedSpan steady(log_, "thermal.steady", probe.id());
        grid_.solveSteadyState();
    }
    for (size_t i = 0; i < sensors_.size(); ++i) {
        ThermalSensor &sensor = sensors_.sensor(static_cast<int>(i));
        sensor.reset(grid_.temperatureAt(sensor.location()));
    }
    source_->reset(seed);
    sensorRng_ = Rng(seed ^ 0x5e115ULL);
}

WalkStep
LayerWalk::step(GHz freq)
{
    ScopedSpan root(log_, "walk.step");
    const int parent = root.id();
    const Volts volts = vf_.voltage(freq);
    const Seconds dt = config_.stepLength;
    const int ncores = source_->numCores();

    std::vector<CoreStimulus> stimuli(ncores);
    {
        ScopedSpan span(log_, "workload.stimulus", parent);
        for (int c = 0; c < ncores; ++c)
            stimuli[c] = source_->stimulus(c);
    }

    std::vector<CounterSet> counters(ncores);
    std::vector<const CounterSet *> ptrs(ncores, nullptr);
    std::vector<double> residuals(ncores, 1.0);
    {
        ScopedSpan span(log_, "arch.step", parent);
        for (int c = 0; c < ncores; ++c) {
            if (!stimuli[c].active)
                continue;
            const PhaseParams &phase = stimuli[c].phase;
            // Same draw order as the pipeline: the residual
            // switching-activity factor, then the core model's noise.
            if (phase.intensityNoise > 0.0) {
                residuals[c] = std::exp(source_->noiseRng(c).normal(
                    0.0, phase.intensityNoise));
            }
            counters[c] = core_.step(phase, freq, dt, source_->noiseRng(c));
            ptrs[c] = &counters[c];
        }
    }

    WalkStep out;
    std::vector<Watts> unit_power;
    {
        ScopedSpan span(log_, "power.unit_power", parent);
        unit_power = power_.unitPowerMulti(ptrs, residuals, freq, volts,
                                           grid_.unitTemps(), dt);
        out.totalPower = PowerModel::totalPower(unit_power);
    }
    {
        ScopedSpan span(log_, "thermal.ingest", parent);
        grid_.setUnitPower(unit_power);
    }
    {
        ScopedSpan span(log_, "thermal.step", parent);
        grid_.step(dt);
    }
    const std::vector<Celsius> *temps = nullptr;
    {
        ScopedSpan span(log_, "thermal.publish", parent);
        temps = &grid_.siliconTemps();
    }
    std::vector<Celsius> readings;
    {
        ScopedSpan span(log_, "sensors.sample", parent);
        sensors_.sampleAll(grid_, dt, sensorRng_);
        readings = sensors_.readings();
    }
    {
        ScopedSpan span(log_, "hotspot.severity", parent);
        const Meters cell_size = floorplan_.dieWidth() / grid_.nx();
        out.maxSeverity = severity_.evaluate(*temps, grid_.nx(), grid_.ny(),
                                             cell_size).maxSeverity;
    }
    {
        ScopedSpan span(log_, "workload.advance", parent);
        source_->advance(dt);
    }
    return out;
}

} // namespace perfbench
