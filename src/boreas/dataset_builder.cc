#include "boreas/dataset_builder.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "ml/feature_schema.hh"
#include "sensors/placement.hh"

namespace boreas
{

namespace
{

/** Max severity over steps (t, t + horizon], clamped. */
double
labelFor(const RunResult &run, int t, int horizon, double clamp)
{
    double peak = 0.0;
    for (int k = t + 1;
         k <= t + horizon && k < static_cast<int>(run.steps.size()); ++k)
        peak = std::max(peak, run.steps[k].severity.maxSeverity);
    return std::min(peak, clamp);
}

/** Emit one severity instance from step t of a run. */
void
emitInstance(Dataset &out, const RunResult &run, int t,
             const DatasetConfig &config, GHz window_freq, int group)
{
    const StepRecord &rec = run.steps[t];
    const std::vector<double> x = assembleFeatures(
        rec.counters, rec.sensorReadings[kBestSensorIndex],
        window_freq);
    out.addRow(x, labelFor(run, t, config.horizonSteps,
                           config.labelClamp), group);
}

/** Emit a Cochran-Reda sample at a decision boundary. */
void
emitPhaseSample(std::vector<PhaseThermalSample> &out,
                const RunResult &run, int t, int horizon, int freq_index)
{
    const int next = t + horizon;
    if (next >= static_cast<int>(run.steps.size()))
        return;
    PhaseThermalSample s;
    const StepRecord &rec = run.steps[t];
    s.counters.assign(rec.counters.values.begin(),
                      rec.counters.values.end());
    s.tempNow = rec.sensorReadings[kBestSensorIndex];
    s.freqIndex = freq_index;
    s.tempNext = run.steps[next].sensorReadings[kBestSensorIndex];
    out.push_back(std::move(s));
}

/**
 * One independent trace to simulate: either a constant-frequency run
 * (schedule empty) or a random-walk run (schedule non-empty). Jobs are
 * enumerated serially — in the exact order the former single-threaded
 * loop emitted instances, with the walk RNG drawn in that same order —
 * then executed on the pool and merged back in job order, so the built
 * dataset is bit-identical for every BOREAS_THREADS value.
 */
struct TraceJob
{
    std::unique_ptr<WorkloadSource> source; ///< private to this job
    uint64_t seed = 0;
    GHz warm = 0.0;
    int group = 0;
    GHz constFreq = 0.0;      ///< constant-frequency job when schedule empty
    std::vector<GHz> schedule;
};

/** Output shard of one job. */
struct JobResult
{
    Dataset severity;
    std::vector<PhaseThermalSample> phaseSamples;
};

/** Run one job on the given (task-local) pipeline and emit its shard. */
void
runJob(SimulationPipeline &pipeline, const VFTable &vf,
       const TraceJob &job, const DatasetConfig &config, JobResult &out)
{
    out.severity = Dataset(fullFeatureSchema());
    const int last = config.traceSteps - config.horizonSteps;

    if (job.schedule.empty()) {
        const RunResult run = pipeline.runConstantFrequency(
            *job.source, job.seed, job.constFreq, config.traceSteps,
            job.warm);
        for (int t = 0; t < last; ++t)
            emitInstance(out.severity, run, t, config, job.constFreq,
                         job.group);
        for (int t = config.horizonSteps - 1; t < last;
             t += config.horizonSteps)
            emitPhaseSample(out.phaseSamples, run, t,
                            config.horizonSteps, vf.index(job.constFreq));
        return;
    }

    const RunResult run = pipeline.runWithSchedule(
        *job.source, job.seed, job.schedule, config.traceSteps,
        job.warm);

    // Instances only where the label window [t+1, t+horizon] runs at a
    // single frequency: t+1 on a decision boundary and every decision
    // period the window touches unchanged.
    const std::vector<GHz> &schedule = job.schedule;
    auto decision_of = [&](int step) {
        return std::min(static_cast<size_t>(step / kStepsPerDecision),
                        schedule.size() - 1);
    };
    for (int t = kStepsPerDecision - 1; t < last;
         t += kStepsPerDecision) {
        const GHz wf = schedule[decision_of(t + 1)];
        bool constant = true;
        for (int k = t + 1; k <= t + config.horizonSteps;
             k += kStepsPerDecision) {
            if (schedule[decision_of(k)] != wf) {
                constant = false;
                break;
            }
        }
        if (!constant ||
            schedule[decision_of(t + config.horizonSteps)] != wf)
            continue;
        emitInstance(out.severity, run, t, config, wf, job.group);
        emitPhaseSample(out.phaseSamples, run, t, config.horizonSteps,
                        vf.index(wf));
    }
}

} // namespace

BuiltData
buildTrainingData(SimulationPipeline &pipeline,
                  const std::vector<const WorkloadSource *> &sources,
                  const DatasetConfig &config)
{
    boreas_assert(!sources.empty(), "no workload sources");
    boreas_assert(config.horizonSteps >= 1, "bad horizon");

    const VFTable &vf = pipeline.vfTable();
    std::vector<GHz> freqs = config.frequencies;
    if (freqs.empty())
        freqs = vf.frequencies();

    Rng walk_rng(config.baseSeed ^ 0xdecaf000ULL);

    std::vector<double> augments = config.intensityAugments;
    if (augments.empty())
        augments.push_back(1.0);

    // Phase 1 (serial): enumerate every trace job in emission order.
    std::vector<TraceJob> jobs;
    for (const WorkloadSource *base : sources) {
        // groupId() is the seedSalt of a wrapped suite program.
        const uint64_t salt = base->groupId();
        const int group = static_cast<int>(salt);

        // Constant-frequency traces, repeated per intensity augment.
        for (size_t ai = 0; ai < augments.size(); ++ai) {
            for (GHz f : freqs) {
                for (int seg = 0; seg < config.constSegments; ++seg) {
                    TraceJob job;
                    job.source = base->cloneScaled(augments[ai]);
                    job.group = group;
                    job.constFreq = f;
                    job.seed = config.baseSeed + salt * 1000 +
                        vf.index(f) * 10 + seg + ai * 31337;
                    // Diversify the initial thermal state: real traces
                    // are windows of much longer executions, so the
                    // die can be anywhere between cool and saturated
                    // when a window begins.
                    job.warm = vf.frequency(
                        (vf.index(f) + static_cast<int>(ai) * 4 + seg) %
                        vf.numPoints());
                    jobs.push_back(std::move(job));
                }
            }
        }

        // Random-walk traces: +/- one VF step (or hold) per decision,
        // holding each point long enough that label windows with a
        // single frequency exist. The walk RNG is consumed here, in
        // enumeration order, never on the pool.
        const int hold = std::max(
            1, (config.horizonSteps + kStepsPerDecision - 1) /
                   kStepsPerDecision);
        for (int seg = 0; seg < config.walkSegments; ++seg) {
            TraceJob job;
            job.source =
                base->cloneScaled(augments[seg % augments.size()]);
            job.group = group;
            const int decisions =
                (config.traceSteps + kStepsPerDecision - 1) /
                kStepsPerDecision;
            GHz f = vf.frequency(
                walk_rng.uniformInt(0, vf.numPoints() - 1));
            while (static_cast<int>(job.schedule.size()) < decisions) {
                for (int h = 0; h < hold; ++h)
                    job.schedule.push_back(f);
                const int move = walk_rng.uniformInt(-1, 1);
                if (move < 0)
                    f = vf.stepDown(f);
                else if (move > 0)
                    f = vf.stepUp(f);
            }
            job.schedule.resize(decisions);
            job.seed = config.baseSeed + salt * 1000 + 777 + seg;
            job.warm = vf.frequency(
                walk_rng.uniformInt(0, vf.numPoints() - 1));
            jobs.push_back(std::move(job));
        }
    }

    // Phase 2 (parallel): run the traces. Each chunk owns a private
    // pipeline cloned from the caller's configuration, so scheduling
    // order cannot perturb any run.
    std::vector<JobResult> results(jobs.size());
    ThreadPool &pool = ThreadPool::global();
    const int64_t grain = std::max<int64_t>(
        1, static_cast<int64_t>(jobs.size()) /
            (static_cast<int64_t>(pool.numThreads()) * 4));
    pool.parallelFor(
        0, static_cast<int64_t>(jobs.size()), grain,
        [&](int64_t lo, int64_t hi) {
            SimulationPipeline local(pipeline.config());
            for (int64_t j = lo; j < hi; ++j)
                runJob(local, local.vfTable(), jobs[j], config,
                       results[j]);
        });

    // Phase 3 (serial): merge shards in job order.
    BuiltData built;
    built.severity = Dataset(fullFeatureSchema());
    for (const JobResult &r : results) {
        built.severity.append(r.severity);
        built.phaseSamples.insert(built.phaseSamples.end(),
                                  r.phaseSamples.begin(),
                                  r.phaseSamples.end());
    }
    return built;
}

} // namespace boreas
