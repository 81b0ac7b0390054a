/**
 * @file
 * Shared setup for the paper-reproduction bench harnesses: the default
 * pipeline (PipelineConfig{}, which steps the spectral thermal
 * solver), the full-scale training pass, the TH critical-temperature
 * table, and the standard controller set (TH-00/05/10, ML00/05/10,
 * oracle, global limit, Cochran-Reda). Each product is built only by
 * the benches that read it: the TH table by those that run a TH or
 * Cochran-Reda controller.
 *
 * Scale control: set the environment variable BOREAS_BENCH_SCALE to
 * "small" for a quick pass (fewer segments; minutes -> seconds) or
 * "paper" for the 500K-instance-class dataset. Default is "full",
 * which reproduces every figure's shape in a few minutes total.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "boreas/analysis.hh"
#include "boreas/pipeline.hh"
#include "boreas/trainer.hh"
#include "control/boreas_controller.hh"
#include "control/phase_thermal.hh"
#include "control/static_controllers.hh"
#include "control/thermal_controller.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

namespace boreas::bench
{

/** Bench scale selected via BOREAS_BENCH_SCALE. */
enum class Scale
{
    Small, ///< quick smoke (CI)
    Full,  ///< default: full workload suite, reduced segments
    Paper  ///< 500K-instance-class dataset
};

Scale benchScale();

/** Seed shared by all benches so figures are cross-consistent. */
constexpr uint64_t kBenchSeed = 2023;

/**
 * Command-line options shared by every bench main. With no arguments
 * each bench runs its built-in default programs; `--workload
 * <source-spec>` (or `--workload=<...>`) substitutes any registered
 * workload source (workload/registry.hh grammar:
 * synthetic:spec2006/<name>, synthetic:nas/<name>, mix:...,
 * adversarial:..., trace:<path>, or a bare program name).
 */
struct BenchOptions
{
    std::string workloadSpec; ///< empty = bench default programs

    bool
    hasWorkload() const
    {
        return !workloadSpec.empty();
    }

    /**
     * The sources a bench runs: the --workload source alone (panics if
     * it does not resolve), or else `defaults` wrapped as sources,
     * whose names are the bare program names.
     */
    SourceSet sources(const std::vector<const WorkloadSpec *> &defaults)
        const;
};

/** Parse bench argv; panics with usage on unknown arguments. */
BenchOptions parseBenchArgs(int argc, char **argv);

/** Panics if --workload was given — for benches whose experiment has
 *  no workload dimension (e.g. VF tables, severity contours). */
void requireNoWorkloadOverride(const BenchOptions &options,
                               const char *bench_name);

/** The DatasetConfig for a scale. */
DatasetConfig datasetConfigFor(Scale scale);

/**
 * What every ML evaluation bench reads: the default pipeline and the
 * serving bundle trained on the Table III training workloads.
 */
struct ExperimentContext
{
    SimulationPipeline pipeline;
    TrainedBoreas trained;

    /** Guardbanded Boreas controller (name "ML00"/"ML05"/"ML10"). */
    std::unique_ptr<BoreasController> mlController(double guardband) const;
};

/** Build the shared context: train Boreas. Prints progress to stderr. */
std::unique_ptr<ExperimentContext> buildExperimentContext();

/**
 * Derive the TH critical-temperature table: the train-set global
 * criticals at the best sensor. Prints progress to stderr.
 */
CriticalTempTable buildThTable(SimulationPipeline &pipeline);

/** Thermal controller on `table` with the given relaxation
 *  ("TH-00"...). The controller keeps its own copy of the table. */
std::unique_ptr<ThermalThresholdController>
thController(const CriticalTempTable &table, Celsius offset);

/** Cochran-Reda baseline controller on `trained`'s phase model (which
 *  must outlive it) and its own copy of `table`. */
std::unique_ptr<PhaseThermalController>
crController(const TrainedBoreas &trained, const CriticalTempTable &table);

/**
 * The serving benches' training recipe (micro_latency, gbt_throughput):
 * the paper's deployed 223-tree model on a reduced trajectory set, one
 * walk segment at 3.75 / 4.25 / 4.75 GHz over povray, gromacs, sjeng
 * and mcf. The serving path's cost depends on the model's shape, not on
 * the dataset's size, so the recipe ignores BOREAS_BENCH_SCALE.
 */
TrainedBoreas trainServingRecipe(SimulationPipeline &pipeline);

/** One closed-loop evaluation row. */
struct EvalRow
{
    std::string workload;
    std::string controller;
    double avgFreq = 0.0;      ///< GHz over the trace
    double normalized = 0.0;   ///< avgFreq / 3.75 GHz baseline
    double peakSeverity = 0.0;
    int incursions = 0;
};

/**
 * Run one controller on a fresh clone of one source and summarize;
 * the row is labeled with the source name.
 */
EvalRow evaluateController(SimulationPipeline &pipeline,
                           const WorkloadSource &source,
                           FrequencyController &controller,
                           uint64_t seed = kBenchSeed);

/**
 * Creates a fresh controller instance for one run. Invoked on pool
 * workers, so the factory must be callable concurrently; the trained
 * models it wires in are shared read-only.
 */
using ControllerFactory =
    std::function<std::unique_ptr<FrequencyController>()>;

/** One independent closed-loop run for the parallel fan-out. The
 *  task runs a private clone of `source`, so many tasks may share one
 *  base source. */
struct RunTask
{
    const WorkloadSource *source = nullptr;
    ControllerFactory makeController;
    uint64_t seed = kBenchSeed;
    GHz initialFreq = kBaselineFrequency;
};

/**
 * Execute every task on the global pool — one private pipeline per
 * chunk, one freshly-made controller per run — and return the results
 * in task order (identical at any BOREAS_THREADS value).
 */
std::vector<RunResult> runAll(const PipelineConfig &config,
                              const std::vector<RunTask> &tasks);

/**
 * Evaluate the full (source x controller) grid in parallel, one source
 * clone per run. Result rows are indexed [source][controller],
 * matching the input vectors' order, and labeled with source names.
 */
std::vector<std::vector<EvalRow>>
evaluateGrid(const PipelineConfig &config,
             const std::vector<const WorkloadSource *> &sources,
             const std::vector<ControllerFactory> &controllers,
             uint64_t seed = kBenchSeed);

} // namespace boreas::bench
