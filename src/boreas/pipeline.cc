#include "boreas/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/hash.hh"
#include "common/logging.hh"
#include "obs/trace.hh"
#include "workload/trace_io.hh"

namespace boreas
{

double
RunResult::averageFrequency() const
{
    if (steps.empty())
        return 0.0;
    double acc = 0.0;
    for (const auto &s : steps)
        acc += s.frequency;
    return acc / static_cast<double>(steps.size());
}

double
RunResult::peakSeverity() const
{
    double peak = 0.0;
    for (const auto &s : steps)
        peak = std::max(peak, s.severity.maxSeverity);
    return peak;
}

int
RunResult::incursionSteps() const
{
    int n = 0;
    for (const auto &s : steps)
        if (s.severity.maxSeverity >= 1.0)
            ++n;
    return n;
}

SimulationPipeline::SimulationPipeline(const PipelineConfig &config)
    : config_(config),
      floorplan_(buildSkylakeFloorplan(config.floorplan)),
      vf_(),
      core_(config.core),
      power_(floorplan_, config.power),
      grid_(floorplan_, config.thermal),
      severity_(config.severity)
{
    const auto sites = canonicalSensorSites(floorplan_,
                                            config_.activeCore);
    for (size_t i = 0; i < sites.size(); ++i) {
        sensors_.addSensor(strfmt("tsens%02zu", i), sites[i],
                           config_.sensors);
    }
}

std::vector<Watts>
SimulationPipeline::meanUnitPower(const WorkloadSource &source,
                                  uint64_t seed, GHz freq)
{
    // Average the source's counter stream over a probe window with
    // leakage evaluated at a warm, uniform estimate. The probe runs
    // on a fresh clone so the main run's noise streams are untouched.
    const std::unique_ptr<WorkloadSource> probe = source.clone();
    probe->reset(seed);
    const int ncores = probe->numCores();
    const Volts volts = vf_.voltage(freq);
    const std::vector<Celsius> warm_temps(floorplan_.numUnits(),
                                          config_.thermal.ambient + 20.0);

    constexpr int kProbeSteps = 64;
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
    for (auto &w : acc)
        w /= kProbeSteps;
    return acc;
}

void
SimulationPipeline::start(WorkloadSource &source, uint64_t seed,
                          GHz warm_freq_override)
{
    obs::ScopedTimer start_timer("stage.start");
    boreas_assert(source.numCores() >= 1 &&
                      source.numCores() <= config_.floorplan.numCores,
                  "source '%s' drives %d cores, die has %d",
                  source.name().c_str(), source.numCores(),
                  config_.floorplan.numCores);
    source_ = &source;
    source.reset(seed);
    sensorRng_ = Rng(seed ^ 0xb0a3a5c1d2e3f405ULL);
    stepIndex_ = 0;
    runHash_ = 0;

    std::vector<Watts> warm_power;
    if (config_.warmStart) {
        const GHz warm_freq = warm_freq_override > 0.0
            ? warm_freq_override : config_.warmStartFreq;
        // Trace replays carry the recorded warm power: the live probe
        // draws from the generator, which a recording cannot re-run.
        const std::vector<Watts> *recorded = source.recordedWarmPower();
        if (recorded) {
            warm_power = *recorded;
        } else {
            obs::ScopedTimer probe_timer("stage.start.warm_probe");
            warm_power = meanUnitPower(source, seed ^ 0x5eedULL, warm_freq);
        }
        grid_.setUnitPower(warm_power);
        // The steady solve replaces the whole thermal state, so a warm
        // start needs no reset() first.
        obs::ScopedTimer steady_timer("stage.thermal.steady");
        grid_.solveSteadyState();
    } else {
        grid_.reset(config_.thermal.ambient);
    }

    // Sensors start in equilibrium with their local silicon.
    for (size_t i = 0; i < sensors_.size(); ++i) {
        sensors_.sensor(static_cast<int>(i)).reset(
            grid_.temperatureAt(
                sensors_.sensor(static_cast<int>(i)).location()));
    }

    if (recorder_) {
        recorder_->onRunStart(source.name(), source.numCores(),
                              config_.stepLength, seed,
                              std::move(warm_power));
    }
}

StepRecord
SimulationPipeline::step(GHz freq)
{
    boreas_assert(source_ != nullptr, "step() before start()");
    obs::MetricsRegistry::global().add("pipeline.steps");
    const Volts volts = vf_.voltage(freq);
    const int ncores = source_->numCores();

    std::vector<CoreStimulus> stimuli(ncores);
    for (int c = 0; c < ncores; ++c)
        stimuli[c] = source_->stimulus(c);

    // The recorder tap runs before any pipeline draw: replay restores
    // these exact pre-step Rng snapshots, so the residual and
    // core-model draws below reproduce bit-identically.
    if (recorder_) {
        std::vector<TraceCoreRecord> cores(ncores);
        for (int c = 0; c < ncores; ++c) {
            cores[c].active = stimuli[c].active;
            cores[c].rng = source_->noiseRng(c).saveState();
            cores[c].phase = stimuli[c].phase;
        }
        recorder_->recordStep(static_cast<uint32_t>(stepIndex_),
                              std::move(cores));
    }

    StepRecord rec;
    rec.step = stepIndex_;
    rec.frequency = freq;
    rec.voltage = volts;

    std::vector<CounterSet> core_counters(ncores);
    std::vector<double> residuals(ncores, 1.0);
    {
        obs::ScopedTimer timer("stage.arch");
        for (int c = 0; c < ncores; ++c) {
            if (!stimuli[c].active)
                continue;
            const PhaseParams &phase = stimuli[c].phase;
            // Residual switching-activity noise: data-dependent
            // energy per event that no counter captures. Applied to
            // power only (the counter-visible activity scale lives in
            // phase.intensity and is consumed by the core model).
            if (phase.intensityNoise > 0.0) {
                residuals[c] = std::exp(source_->noiseRng(c).normal(
                    0.0, phase.intensityNoise));
            }
            core_counters[c] = core_.step(phase, freq,
                                          config_.stepLength,
                                          source_->noiseRng(c));
        }
    }
    rec.counters = core_counters[0];

    std::vector<Watts> unit_power;
    {
        obs::ScopedTimer timer("stage.power");
        const std::vector<Celsius> &unit_temps = grid_.unitTemps();
        std::vector<const CounterSet *> ptrs(ncores, nullptr);
        for (int c = 0; c < ncores; ++c) {
            if (stimuli[c].active)
                ptrs[c] = &core_counters[c];
        }
        unit_power = power_.unitPowerMulti(
            ptrs, residuals, freq, volts, unit_temps, config_.stepLength);
        rec.totalPower = PowerModel::totalPower(unit_power);
    }

    // Ingest, step and publish: the sensors and severity below read the
    // published field, so every thermal transform is timed here.
    {
        obs::ScopedTimer timer("stage.thermal");
        grid_.setUnitPower(unit_power);
        grid_.step(config_.stepLength);
        grid_.siliconTemps();
    }

    {
        obs::ScopedTimer timer("stage.sensors");
        sensors_.sampleAll(grid_, config_.stepLength, sensorRng_);
        rec.sensorReadings = sensors_.readings();
        rec.sensorTrue.reserve(sensors_.size());
        for (size_t i = 0; i < sensors_.size(); ++i)
            rec.sensorTrue.push_back(
                sensors_.sensor(static_cast<int>(i)).lastTrueTemp());
    }

    {
        obs::ScopedTimer timer("stage.severity");
        const Meters cell_size = floorplan_.dieWidth() / grid_.nx();
        rec.severity = severity_.evaluate(grid_.siliconTemps(),
                                          grid_.nx(), grid_.ny(),
                                          cell_size);
    }

    // Bitwise fingerprint of everything this step observed or
    // mutated. Fed by the determinism audit (tests compare it across
    // thread counts). StateHasher takes the ~4,200 words eight lanes
    // at a time (common/hash.hh); the run-level chain stays Fnv1a.
    {
        obs::ScopedTimer timer("stage.hash");
        StateHasher hasher;
        hasher.add(rec.step);
        hasher.add(rec.frequency);
        hasher.add(rec.voltage);
        hasher.add(rec.counters.values.data(), rec.counters.values.size());
        hasher.add(rec.totalPower);
        hasher.add(rec.severity.maxSeverity);
        hasher.add(rec.severity.argmaxCell);
        hasher.add(rec.severity.tempAtMax);
        hasher.add(rec.severity.mltdAtMax);
        hasher.add(rec.severity.maxTemp);
        hasher.add(rec.severity.maxMltd);
        hasher.add(rec.sensorReadings);
        hasher.add(rec.sensorTrue);
        hasher.add(grid_.siliconTemps());
        hasher.add(grid_.sinkTemp());
        // The other cores' telemetry, then every core's activity.
        for (int c = 1; c < ncores; ++c) {
            hasher.add(core_counters[c].values.data(),
                       core_counters[c].values.size());
        }
        for (int c = 0; c < ncores; ++c)
            hasher.add(static_cast<int>(stimuli[c].active));
        rec.stateHash = hasher.digest();

        Fnv1a combine;
        combine.add(runHash_);
        combine.add(rec.stateHash);
        runHash_ = combine.digest();
    }

    source_->advance(config_.stepLength);
    ++stepIndex_;
    return rec;
}

RunResult
SimulationPipeline::runConstantFrequency(WorkloadSource &source,
                                         uint64_t seed, GHz freq,
                                         int steps,
                                         GHz warm_freq_override)
{
    start(source, seed, warm_freq_override);
    RunResult result;
    result.steps.reserve(steps);
    for (int s = 0; s < steps; ++s)
        result.steps.push_back(step(freq));
    result.decidedFreqs.assign(
        static_cast<size_t>((steps + kStepsPerDecision - 1) /
                            kStepsPerDecision), freq);
    return result;
}

RunResult
SimulationPipeline::runWithController(WorkloadSource &source,
                                      uint64_t seed,
                                      FrequencyController &controller,
                                      GHz initial_freq, int steps)
{
    start(source, seed);
    controller.reset();
    GHz freq = initial_freq;
    return continueWithController(controller, &freq, steps);
}

RunResult
SimulationPipeline::continueWithController(FrequencyController &controller,
                                           GHz *freq, int steps)
{
    boreas_assert(source_ != nullptr,
                  "continueWithController() before start()");
    boreas_assert(freq != nullptr, "null carried frequency");
    RunResult result;
    result.steps.reserve(steps);
    for (int s = 0; s < steps; ++s) {
        result.steps.push_back(step(*freq));
        if ((s + 1) % kStepsPerDecision == 0) {
            obs::ScopedTimer timer("stage.controller");
            DecisionContext ctx;
            ctx.currentFreq = *freq;
            ctx.counters = &result.steps.back().counters;
            ctx.sensorReadings = result.steps.back().sensorReadings;
            ctx.vf = &vf_;
            *freq = controller.decide(ctx);
            result.decidedFreqs.push_back(*freq);
        }
    }
    return result;
}

RunResult
SimulationPipeline::runWithSchedule(WorkloadSource &source,
                                    uint64_t seed,
                                    const std::vector<GHz> &schedule,
                                    int steps, GHz warm_freq_override)
{
    boreas_assert(!schedule.empty(), "empty frequency schedule");
    start(source, seed, warm_freq_override);
    RunResult result;
    result.steps.reserve(steps);
    for (int s = 0; s < steps; ++s) {
        const size_t decision = std::min(
            static_cast<size_t>(s / kStepsPerDecision),
            schedule.size() - 1);
        result.steps.push_back(step(schedule[decision]));
    }
    result.decidedFreqs = schedule;
    return result;
}

} // namespace boreas
