#include "harness.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace boreas::bench
{

Scale
benchScale()
{
    const char *env = std::getenv("BOREAS_BENCH_SCALE");
    if (env == nullptr)
        return Scale::Full;
    if (std::strcmp(env, "small") == 0)
        return Scale::Small;
    if (std::strcmp(env, "paper") == 0)
        return Scale::Paper;
    if (std::strcmp(env, "full") == 0)
        return Scale::Full;
    boreas_fatal("BOREAS_BENCH_SCALE must be small|full|paper, got '%s'",
                 env);
}

SourceSet
BenchOptions::sources(const std::vector<const WorkloadSpec *> &defaults)
    const
{
    if (!hasWorkload())
        return wrapSpecs(defaults);
    SourceSet set;
    set.add(makeWorkloadSource(workloadSpec));
    return set;
}

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--workload") == 0 && i + 1 < argc) {
            options.workloadSpec = argv[++i];
        } else if (std::strncmp(arg, "--workload=", 11) == 0) {
            options.workloadSpec = arg + 11;
        } else {
            boreas_fatal(
                "unknown bench argument '%s'\n"
                "usage: %s [--workload <source-spec>]\n%s",
                arg, argv[0], workloadSourceGrammar().c_str());
        }
    }
    return options;
}

void
requireNoWorkloadOverride(const BenchOptions &options,
                          const char *bench_name)
{
    if (options.hasWorkload()) {
        boreas_fatal("%s has no workload dimension; --workload does "
                     "not apply", bench_name);
    }
}

DatasetConfig
datasetConfigFor(Scale scale)
{
    DatasetConfig cfg;
    cfg.baseSeed = kBenchSeed;
    switch (scale) {
      case Scale::Small:
        cfg.frequencies = {3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0};
        cfg.constSegments = 1;
        cfg.walkSegments = 2;
        break;
      case Scale::Full:
        cfg.constSegments = 1;
        cfg.walkSegments = 8;
        break;
      case Scale::Paper:
        // ~20 workloads x 13 freqs x 10 segments x 138 instances
        // ~ 360K const instances + walks: the 500K-instance class.
        cfg.constSegments = 10;
        cfg.walkSegments = 40;
        break;
    }
    return cfg;
}

std::unique_ptr<BoreasController>
ExperimentContext::mlController(double guardband) const
{
    const int pct = static_cast<int>(guardband * 100.0 + 0.5);
    return std::make_unique<BoreasController>(
        strfmt("ML%02d", pct), &trained.model, trained.featureNames,
        guardband, kBestSensorIndex);
}

std::unique_ptr<ExperimentContext>
buildExperimentContext()
{
    auto ctx = std::make_unique<ExperimentContext>();

    const Scale scale = benchScale();
    std::fprintf(stderr, "[bench] training Boreas (scale=%s)...\n",
                 scale == Scale::Small ? "small"
                 : scale == Scale::Paper ? "paper" : "full");

    TrainerConfig tcfg;
    tcfg.data = datasetConfigFor(scale);
    ctx->trained = trainBoreas(ctx->pipeline,
                               wrapSpecs(trainWorkloads()).sources, tcfg);
    std::fprintf(stderr, "[bench] trained on %zu instances\n",
                 ctx->trained.trainData.numRows());
    return ctx;
}

CriticalTempTable
buildThTable(SimulationPipeline &pipeline)
{
    std::fprintf(stderr, "[bench] deriving TH critical temps...\n");
    const CriticalTempStudy study = criticalTempStudy(
        pipeline, wrapSpecs(trainWorkloads()).sources,
        pipeline.vfTable().frequencies(), kBestSensorIndex, kBenchSeed);
    return study.globalTable();
}

std::unique_ptr<ThermalThresholdController>
thController(const CriticalTempTable &table, Celsius offset)
{
    return std::make_unique<ThermalThresholdController>(
        strfmt("TH-%02d", static_cast<int>(offset)), table, offset,
        kBestSensorIndex);
}

std::unique_ptr<PhaseThermalController>
crController(const TrainedBoreas &trained, const CriticalTempTable &table)
{
    return std::make_unique<PhaseThermalController>(
        "CochranReda", &trained.phaseModel, table, 0.0,
        kBestSensorIndex);
}

TrainedBoreas
trainServingRecipe(SimulationPipeline &pipeline)
{
    TrainerConfig cfg;
    cfg.data.frequencies = {3.75, 4.25, 4.75};
    cfg.data.walkSegments = 1;
    cfg.gbt.nEstimators = 223; // the paper's deployed size
    const SourceSet train = wrapSpecs(
        {&findWorkload("povray"), &findWorkload("gromacs"),
         &findWorkload("sjeng"), &findWorkload("mcf")});
    return trainBoreas(pipeline, train.sources, cfg);
}

namespace
{

EvalRow
summarize(const std::string &workload, const std::string &controller,
          const RunResult &run)
{
    EvalRow row;
    row.workload = workload;
    row.controller = controller;
    row.avgFreq = run.averageFrequency();
    row.normalized = row.avgFreq / kBaselineFrequency;
    row.peakSeverity = run.peakSeverity();
    row.incursions = run.incursionSteps();
    return row;
}

} // namespace

EvalRow
evaluateController(SimulationPipeline &pipeline,
                   const WorkloadSource &source,
                   FrequencyController &controller)
{
    const auto clone = source.clone();
    return summarize(source.name(), controller.name(),
                     pipeline.runWithController(*clone, kBenchSeed,
                                                controller,
                                                kBaselineFrequency));
}

std::vector<RunResult>
runAll(const PipelineConfig &config, const std::vector<RunTask> &tasks)
{
    std::vector<RunResult> results(tasks.size());
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(tasks.size()), 1,
        [&](int64_t lo, int64_t hi) {
            SimulationPipeline local(config);
            for (int64_t j = lo; j < hi; ++j) {
                const RunTask &task = tasks[j];
                const auto controller = task.makeController();
                const auto src = task.source->clone();
                results[j] = local.runWithController(
                    *src, kBenchSeed, *controller, kBaselineFrequency);
            }
        });
    return results;
}

std::vector<std::vector<EvalRow>>
evaluateGrid(const PipelineConfig &config,
             const std::vector<const WorkloadSource *> &sources,
             const std::vector<ControllerFactory> &controllers)
{
    std::vector<RunTask> tasks;
    tasks.reserve(sources.size() * controllers.size());
    for (const WorkloadSource *s : sources) {
        for (const ControllerFactory &make : controllers)
            tasks.push_back({s, make});
    }
    const std::vector<RunResult> runs = runAll(config, tasks);

    std::vector<std::vector<EvalRow>> grid(sources.size());
    size_t j = 0;
    for (size_t wi = 0; wi < sources.size(); ++wi) {
        for (size_t ci = 0; ci < controllers.size(); ++ci, ++j) {
            grid[wi].push_back(summarize(sources[wi]->name(),
                                         controllers[ci]()->name(),
                                         runs[j]));
        }
    }
    return grid;
}

} // namespace boreas::bench
