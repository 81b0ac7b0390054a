/**
 * @file
 * Google-benchmark microbenchmarks of the hot paths backing the
 * Sec. V-E overhead discussion: one GBT prediction (reference walk and
 * flat engine), one Table II fit of the serving recipe's 21 deployed
 * columns and of all 78 attributes, one controller decision, one
 * thermal step, one MLTD/severity evaluation (live 64x64, plus fixed
 * 32x32 and 128x128 fields), the per-unit temperature gather, and one
 * full pipeline telemetry step —
 * plus the spectral solver's per-step cost: one forward and inverse
 * DCT at 32x32, 64x64 and 128x128, the 64x64 ingest alone, the mode
 * sweep alone, and one ingest -> step -> publish cycle — the per-step
 * state hash through byte-wise FNV-1a and through the eight-lane
 * StateHasher, and one warm-start steady-state solve.
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
#include "common/hash.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "control/boreas_controller.hh"
#include "harness.hh"
#include "ml/feature_schema.hh"
#include "ml/gbt_flat.hh"
#include "report.hh"
#include "thermal/spectral_solver.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

using namespace boreas;
using boreas::bench::trainServingRecipe;

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
        trained = trainServingRecipe(pipeline);
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

/** One Table II fit of the serving recipe's training data. */
static void
gbtTrain(benchmark::State &bm, const Dataset &data)
{
    for (auto _ : bm) {
        GBTRegressor model;
        model.train(data, GBTParams{});
        benchmark::DoNotOptimize(model.basePrediction());
    }
}

/** The deployed model's fit: the 21 selected columns. */
static void
BM_GBTTrain21(benchmark::State &bm)
{
    gbtTrain(bm, state().trained.trainData);
}
BENCHMARK(BM_GBTTrain21)->Apply(microBench);

/** The feature-selection study's fit: all 78 attributes. */
static void
BM_GBTTrain78(benchmark::State &bm)
{
    gbtTrain(bm, state().trained.fullTrainData);
}
BENCHMARK(BM_GBTTrain78)->Apply(microBench);

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

/** An n x n field of plausible die temperatures for the DCT rows. */
static std::vector<double>
dctField(int n)
{
    Rng rng(n);
    std::vector<double> field(static_cast<size_t>(n) * n);
    for (double &v : field)
        v = rng.uniform(40.0, 110.0);
    return field;
}

/** forward() on an n x n grid. */
static void
dctForward(benchmark::State &bm, int n)
{
    Dct2Plan plan(n, n);
    const std::vector<double> field = dctField(n);
    std::vector<double> modes(field.size());
    for (auto _ : bm) {
        plan.forward(field.data(), modes.data());
        benchmark::DoNotOptimize(modes.data());
        benchmark::ClobberMemory();
    }
}

/** inverse() on an n x n grid. */
static void
dctInverse(benchmark::State &bm, int n)
{
    Dct2Plan plan(n, n);
    const std::vector<double> field = dctField(n);
    std::vector<double> modes(field.size());
    plan.forward(field.data(), modes.data());
    std::vector<double> out(field.size());
    for (auto _ : bm) {
        plan.inverse(modes.data(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}

// The 64x64 rows are the default grid; 32 and 128 bracket it with the
// other Lee sweep plans (DESIGN.md §9.4).
static void BM_DctForward32(benchmark::State &bm) { dctForward(bm, 32); }
static void BM_DctForward64(benchmark::State &bm) { dctForward(bm, 64); }
static void BM_DctForward128(benchmark::State &bm) { dctForward(bm, 128); }
static void BM_DctInverse32(benchmark::State &bm) { dctInverse(bm, 32); }
static void BM_DctInverse64(benchmark::State &bm) { dctInverse(bm, 64); }
static void BM_DctInverse128(benchmark::State &bm) { dctInverse(bm, 128); }
BENCHMARK(BM_DctForward32)->Apply(microBench);
BENCHMARK(BM_DctForward64)->Apply(microBench);
BENCHMARK(BM_DctForward128)->Apply(microBench);
BENCHMARK(BM_DctInverse32)->Apply(microBench);
BENCHMARK(BM_DctInverse64)->Apply(microBench);
BENCHMARK(BM_DctInverse128)->Apply(microBench);

/**
 * setUnitPower alone on the default grid: the unit -> cell map and the
 * forward transform of the power map, alternating two power vectors
 * as the pipeline's changing unit power does.
 */
static void
BM_ThermalIngest(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
    Rng rng(81);
    std::vector<Watts> power[2];
    for (auto &p : power) {
        p.resize(fp.numUnits());
        for (Watts &w : p)
            w = rng.uniform(0.5, 5.0);
    }
    size_t i = 0;
    for (auto _ : bm)
        grid.setUnitPower(power[++i % 2]);
}
BENCHMARK(BM_ThermalIngest)->Apply(microBench);

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
 * that differs from the last one (leakage and residual noise move
 * unit power every pipeline step), step 80 us, then publish the
 * silicon field.
 */
static void
BM_SpectralCycle(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
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

/**
 * One evaluation of a fixed n x n field with a w-cell window: the
 * 32x32 (w = 4) and 128x128 (w = 16) rows bracket the live 64x64
 * (w = 8) row above, so the window's per-cell cost shows as grid and
 * window grow together. No training needed.
 */
static void
severityEvaluation(benchmark::State &bm, int n, int w)
{
    const SeverityModel model;
    Rng rng(n + w);
    std::vector<Celsius> temps(static_cast<size_t>(n) * n);
    for (Celsius &t : temps)
        t = rng.uniform(40.0, 110.0);
    const Meters cell = model.params().mltdRadius / w;
    for (auto _ : bm)
        benchmark::DoNotOptimize(model.evaluate(temps, n, n, cell));
}

static void
BM_SeverityEvaluation32(benchmark::State &bm)
{
    severityEvaluation(bm, 32, 4);
}
static void
BM_SeverityEvaluation128(benchmark::State &bm)
{
    severityEvaluation(bm, 128, 16);
}
BENCHMARK(BM_SeverityEvaluation32)->Apply(microBench);
BENCHMARK(BM_SeverityEvaluation128)->Apply(microBench);

/**
 * unitTemps() alone on the default grid: the per-unit area-weighted
 * gather the pipeline runs before every power step, on a published
 * field. No training needed.
 */
static void
BM_UnitTemps(benchmark::State &bm)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalGrid grid(fp, ThermalParams{});
    grid.setUnitPower(std::vector<Watts>(fp.numUnits(), 0.5));
    grid.step(kTelemetryStep);
    grid.siliconTemps();
    for (auto _ : bm)
        benchmark::DoNotOptimize(grid.unitTemps().data());
}
BENCHMARK(BM_UnitTemps)->Apply(microBench);

static void
BM_PipelineTelemetryStep(benchmark::State &bm)
{
    MicroState &s = state();
    for (auto _ : bm)
        benchmark::DoNotOptimize(s.pipeline.step(4.0));
}
BENCHMARK(BM_PipelineTelemetryStep)->Apply(microBench);

/** One default-grid (64x64) pipeline step's hashed state, without the
 *  shared training so the StateHash rows run on their own. */
struct HashedStep
{
    HashedStep()
    {
        SimulationPipeline pipeline;
        auto source = makeSyntheticSource(findWorkload("bzip2"));
        pipeline.start(*source, 1);
        rec = pipeline.step(4.0);
        counters.assign(rec.counters.values.begin(),
                        rec.counters.values.end());
        field = pipeline.thermalGrid().siliconTemps();
        sink = pipeline.thermalGrid().sinkTemp();
    }

    StepRecord rec;
    std::vector<double> counters;
    std::vector<double> field;
    double sink = 0.0;
};

/**
 * The per-step state hash over one real step, in the word order of
 * SimulationPipeline::step, through byte-wise Fnv1a (the previous
 * state hash, kept as the same-process baseline) and StateHasher.
 */
template <class Hasher>
static void
BM_StateHash(benchmark::State &bm)
{
    static const HashedStep s;
    for (auto _ : bm) {
        Hasher h;
        h.add(s.rec.step);
        h.add(s.rec.frequency);
        h.add(s.rec.voltage);
        h.add(s.counters);
        h.add(s.rec.totalPower);
        h.add(s.rec.severity.maxSeverity);
        h.add(s.rec.severity.argmaxCell);
        h.add(s.rec.severity.tempAtMax);
        h.add(s.rec.severity.mltdAtMax);
        h.add(s.rec.severity.maxTemp);
        h.add(s.rec.severity.maxMltd);
        h.add(s.rec.sensorReadings);
        h.add(s.rec.sensorTrue);
        h.add(s.field);
        h.add(s.sink);
        h.add(1); // the core's activity flag
        benchmark::DoNotOptimize(h.digest());
    }
}
BENCHMARK_TEMPLATE(BM_StateHash, Fnv1a)->Apply(microBench);
BENCHMARK_TEMPLATE(BM_StateHash, StateHasher)->Apply(microBench);

/**
 * One 32x32 warm-start steady state: the mode-space solve and the two
 * inverse transforms that publish it (DESIGN.md §9.7).
 */
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
