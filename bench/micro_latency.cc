/**
 * @file
 * Google-benchmark microbenchmarks of the hot paths backing the
 * Sec. V-E overhead discussion: one GBT prediction (reference walk and
 * flat engine), one controller decision, one thermal step, one
 * MLTD/severity evaluation, and one full pipeline telemetry step —
 * plus the spectral solver's per-step cost: one 64x64 forward and
 * inverse DCT, the mode sweep alone, and one ingest -> step -> publish
 * cycle.
 *
 * Every benchmark runs kRepetitions times so the capturing reporter
 * can surface tail latency: the artifact's "latency" series carries
 * mean/p50/p99 per benchmark in the same schema gbt_throughput emits.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "boreas/trainer.hh"
#include "common/dct.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "control/boreas_controller.hh"
#include "ml/feature_schema.hh"
#include "ml/gbt_flat.hh"
#include "report.hh"
#include "thermal/spectral_solver.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

using namespace boreas;

namespace
{

/** --workload spec captured in main() before benchmarks run; it swaps
 *  the stimulus behind BM_PipelineTelemetryStep (default bzip2). */
std::string g_workload_spec; // NOLINT

/** Per-benchmark repetitions: enough samples for a meaningful p99 of
 *  the per-repetition timing without blowing up the wall time. */
constexpr int kRepetitions = 15;

/** Shared state built once (training is expensive). */
struct MicroState
{
    MicroState()
    {
        TrainerConfig cfg;
        cfg.data.frequencies = {3.75, 4.25, 4.75};
        cfg.data.walkSegments = 1;
        cfg.gbt.nEstimators = 223; // the paper's deployed size
        const SourceSet train = wrapSpecs(
            {&findWorkload("povray"), &findWorkload("gromacs"),
             &findWorkload("sjeng"), &findWorkload("mcf")});
        trained = trainBoreas(pipeline, train.sources, cfg);
        source = g_workload_spec.empty()
            ? makeSyntheticSource(findWorkload("bzip2"))
            : makeWorkloadSource(g_workload_spec);
        pipeline.start(*source, 1);
    }

    SimulationPipeline pipeline;
    TrainedBoreas trained;
    std::unique_ptr<WorkloadSource> source; ///< drives `pipeline`
};

MicroState &
state()
{
    static MicroState s;
    return s;
}

} // namespace

/** Shared registration: repetitions give the reporter a sample set
 *  per benchmark; MinTime keeps 15 reps affordable in CI. */
static void
microBench(benchmark::internal::Benchmark *b)
{
    b->Repetitions(kRepetitions)
        ->ReportAggregatesOnly(false)
        ->MinTime(0.05);
}

static void
BM_GBTPrediction(benchmark::State &bm)
{
    MicroState &s = state();
    std::vector<double> x(s.trained.model.numFeatures(), 0.5);
    for (auto _ : bm)
        benchmark::DoNotOptimize(s.trained.model.predict(x.data()));
}
BENCHMARK(BM_GBTPrediction)->Apply(microBench);

static void
BM_FlatGBTPrediction(benchmark::State &bm)
{
    MicroState &s = state();
    const FlatGBT flat(s.trained.model);
    std::vector<double> x(flat.numFeatures(), 0.5);
    for (auto _ : bm)
        benchmark::DoNotOptimize(flat.predictOne(x.data()));
}
BENCHMARK(BM_FlatGBTPrediction)->Apply(microBench);

static void
BM_ControllerDecision(benchmark::State &bm)
{
    MicroState &s = state();
    BoreasController ml05("ML05", &s.trained.model,
                          s.trained.featureNames, 0.05,
                          kBestSensorIndex);
    CounterSet counters;
    counters[Counter::TotalCycles] = 320000;
    DecisionContext ctx;
    ctx.currentFreq = 4.0;
    ctx.counters = &counters;
    ctx.sensorReadings.assign(7, 75.0);
    ctx.vf = &s.pipeline.vfTable();
    for (auto _ : bm)
        benchmark::DoNotOptimize(ml05.decide(ctx));
}
BENCHMARK(BM_ControllerDecision)->Apply(microBench);

static void
BM_ThermalStep80us(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
    std::vector<Watts> power(fp.numUnits(), 0.5);
    grid.setUnitPower(power);
    for (auto _ : bm)
        grid.step(kTelemetryStep);
}
BENCHMARK(BM_ThermalStep80us)->Apply(microBench);

/** A 64x64 field of plausible die temperatures for the DCT rows. */
static std::vector<double>
dctField()
{
    Rng rng(64);
    std::vector<double> field(64 * 64);
    for (double &v : field)
        v = rng.uniform(40.0, 110.0);
    return field;
}

/** forward() on the default grid. */
static void
BM_DctForward64(benchmark::State &bm)
{
    Dct2Plan plan(64, 64);
    const std::vector<double> field = dctField();
    std::vector<double> modes(field.size());
    for (auto _ : bm) {
        plan.forward(field.data(), modes.data());
        benchmark::DoNotOptimize(modes.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_DctForward64)->Apply(microBench);

/** inverse() on the default grid. */
static void
BM_DctInverse64(benchmark::State &bm)
{
    Dct2Plan plan(64, 64);
    const std::vector<double> field = dctField();
    std::vector<double> modes(field.size());
    plan.forward(field.data(), modes.data());
    std::vector<double> out(field.size());
    for (auto _ : bm) {
        plan.inverse(modes.data(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_DctInverse64)->Apply(microBench);

/**
 * The spectral mode sweep alone: one 80 us step of a raw solver on the
 * default grid, with no ingest or publish transform.
 */
static void
BM_SpectralStep(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    const ThermalGrid grid(fp, ThermalParams{});
    SpectralThermalSolver solver(grid.spectralNetwork());
    solver.setPower(std::vector<Watts>(grid.numCells(), 0.01));
    for (auto _ : bm) {
        solver.step(kTelemetryStep);
        benchmark::DoNotOptimize(solver.sinkTemp());
    }
}
BENCHMARK(BM_SpectralStep)->Apply(microBench);

/**
 * One spectral cycle as the pipeline runs it: ingest a power vector
 * that differs from the last one (so the unchanged-input shortcut
 * never fires), step 80 us, then publish the silicon field.
 */
static void
BM_SpectralCycle(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    params.spectralShadowCheck = false;
    ThermalGrid grid(fp, params);
    Rng rng(80);
    std::vector<Watts> power[2];
    for (auto &p : power) {
        p.resize(fp.numUnits());
        for (Watts &w : p)
            w = rng.uniform(0.5, 5.0);
    }
    grid.setUnitPower(power[0]);
    grid.solveSteadyState();
    size_t i = 0;
    for (auto _ : bm) {
        grid.setUnitPower(power[++i % 2]);
        grid.step(kTelemetryStep);
        benchmark::DoNotOptimize(grid.siliconTemps().data());
    }
}
BENCHMARK(BM_SpectralCycle)->Apply(microBench);

static void
BM_SeverityEvaluation(benchmark::State &bm)
{
    MicroState &s = state();
    const ThermalGrid &grid = s.pipeline.thermalGrid();
    const SeverityModel &model = s.pipeline.severityModel();
    const Meters cell =
        s.pipeline.floorplan().dieWidth() / grid.nx();
    for (auto _ : bm) {
        benchmark::DoNotOptimize(model.evaluate(
            grid.siliconTemps(), grid.nx(), grid.ny(), cell));
    }
}
BENCHMARK(BM_SeverityEvaluation)->Apply(microBench);

static void
BM_PipelineTelemetryStep(benchmark::State &bm)
{
    MicroState &s = state();
    for (auto _ : bm)
        benchmark::DoNotOptimize(s.pipeline.step(4.0));
}
BENCHMARK(BM_PipelineTelemetryStep)->Apply(microBench);

static void
BM_SteadyStateSolve(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams params;
    params.nx = 32;
    params.ny = 32;
    ThermalGrid grid(fp, params);
    std::vector<Watts> power(fp.numUnits(), 0.5);
    grid.setUnitPower(power);
    for (auto _ : bm) {
        grid.solveSteadyState();
        benchmark::DoNotOptimize(grid.sinkTemp());
    }
}
BENCHMARK(BM_SteadyStateSolve)->Apply(microBench);

namespace
{

/**
 * Console reporter that additionally captures each benchmark's
 * per-repetition real time (ns/iteration) so the run lands in
 * BENCH_micro_latency.json with mean/p50/p99, not just a mean.
 * Aggregate rows google-benchmark synthesizes from the repetitions
 * (mean/median/stddev) are skipped — we summarize the raw samples
 * ourselves through the shared LatencySummary schema.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Samples
    {
        std::string name;
        std::vector<double> nsPerIteration; ///< one per repetition
    };

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred ||
                run.run_type == Run::RT_Aggregate) {
                continue;
            }
            const double ns = run.real_accumulated_time /
                static_cast<double>(run.iterations) * 1e9;
            // Strip the "/repeats:N" suffix so rows keep the bare
            // benchmark name across repetition-count changes.
            std::string name = run.benchmark_name();
            name = name.substr(0, name.find('/'));
            samplesFor(name).nsPerIteration.push_back(ns);
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<Samples> benchmarks; ///< registration order

  private:
    Samples &samplesFor(const std::string &name)
    {
        for (auto &s : benchmarks)
            if (s.name == name)
                return s;
        benchmarks.push_back({name, {}});
        return benchmarks.back();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    // Pull --workload out of argv before google-benchmark parses the
    // rest (it rejects flags it does not know).
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc)
            g_workload_spec = argv[++i];
        else if (arg.rfind("--workload=", 0) == 0)
            g_workload_spec = arg.substr(11);
        else
            argv[kept++] = argv[i];
    }
    argc = kept;

    boreas::bench::BenchReport report("micro_latency");
    report.predictEngine("flat");
    if (!g_workload_spec.empty())
        report.workloadSource(g_workload_spec);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    TextTable table;
    table.setHeader(
        {"benchmark", "mean ns/iter", "p50 ns/iter", "p99 ns/iter"});
    double predict_ns = 0.0, decide_ns = 0.0;
    for (const auto &b : reporter.benchmarks) {
        const boreas::bench::LatencySummary s =
            boreas::bench::summarizeLatency(b.nsPerIteration);
        table.addRow({b.name, TextTable::num(s.meanNs, 1),
                      TextTable::num(s.p50Ns, 1),
                      TextTable::num(s.p99Ns, 1)});
        report.latency(b.name, s);
        if (b.name == "BM_FlatGBTPrediction")
            predict_ns = s.p50Ns;
        else if (b.name == "BM_ControllerDecision")
            decide_ns = s.p50Ns;
    }
    report.addTable("micro_latency", table);
    if (predict_ns > 0.0) {
        report.comparison("GBT prediction latency p50 [ns]",
                          "~1000 serial ops (Sec. V-E)",
                          TextTable::num(predict_ns, 1));
    }
    if (decide_ns > 0.0) {
        report.comparison("controller decision p50 vs 960 us budget",
                          "well under 960000 ns",
                          TextTable::num(decide_ns, 1));
    }
    return 0;
}
