/**
 * @file
 * End-to-end benchmark of the Boreas closed loop (ML05 serving).
 *
 *   boreas_perfbench --workload eval_grid|long_run --seed N
 *                    --seconds S --trace 0|1 [--spans PATH]
 *
 * Both workloads share one setup, the write side: build a
 * SimulationPipeline and train ML05 with the fixed recipe of recipe.hh.
 * Their timed phases are the read side, closed-loop serving with one
 * client (the next run starts when the previous one ends):
 *
 *   eval_grid  the fig7 protocol: ML05 on the seven held-out Table III
 *              workloads in turn, kTraceSteps steps per run from a warm
 *              start. start() is most of each run.
 *   long_run   one warm start on gamess, then a long ML05 loop chained
 *              in segments through continueWithController(). step() is
 *              all of the time.
 *
 * Steadiness measures:
 *   - fixed work per invocation, never a time budget: --seconds sizes
 *     the work through fixed nominal rates, never through the clock;
 *   - an untimed warm-up before the timed phase;
 *   - single-threaded (run.py sets BOREAS_THREADS=1);
 *   - long_run is chained in segments, so memory does not grow with
 *     run length;
 *   - no per-step percentile among the end-to-end metrics, only
 *     throughput over fixed work and per-run latencies;
 *   - set-up runs several times and reports its median.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 is a separate run
 * that times every layer from outside through the layer walk (walk.hh)
 * and prints the per-layer metrics. Either way the last stdout line is
 * one JSON object {correct, attempted, failed, metrics}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "recipe.hh"
#include "spans.hh"
#include "walk.hh"
#include "workload/registry.hh"

namespace perfbench
{
namespace
{

using namespace boreas;

/** Set-ups per untraced invocation; setup_s is their median. */
constexpr int kSetups = 3;
/** Nominal eval_grid runs per --seconds (about 5.5 runs/s measured). */
constexpr double kGridRunsPerSecond = 5.0;
/** Nominal long_run steps per --seconds (about 3000 steps/s measured). */
constexpr double kLongStepsPerSecond = 2880.0;
/** long_run segment: 120 decision periods, about half a second. */
constexpr int kSegmentSteps = 120 * kStepsPerDecision;
/** Traced runs: eval_grid runs, long_run steps. */
constexpr int kTracedGridRuns = 14;
constexpr int kTracedLongSteps = 800 * kStepsPerDecision;
/** Fidelity check length on long_run (eval_grid replays one run of
 *  every held-out workload). */
constexpr int kFidelityLongSteps = 200 * kStepsPerDecision;
constexpr double kFidelityRelTol = 1e-9;

struct Options
{
    std::string workload;
    uint64_t seed = 2023;
    int seconds = 10;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "boreas_perfbench: %s\nusage: boreas_perfbench --workload "
                 "eval_grid|long_run --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val, &end, 10);
            if (*end != '\0')
                usage("bad --seed");
        } else if (arg == "--seconds") {
            o.seconds = static_cast<int>(std::strtol(val, &end, 10));
            if (*end != '\0' || o.seconds < 1 || o.seconds > 600)
                usage("bad --seconds");
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = val[0] == '1';
        } else if (arg == "--spans") {
            o.spansPath = val;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.workload != "eval_grid" && o.workload != "long_run")
        usage("--workload must be eval_grid or long_run");
    return o;
}

/** splitmix64: run seeds derived from the benchmark seed. */
uint64_t
deriveSeed(uint64_t base, uint64_t index)
{
    uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
seconds(int64_t begin_ns, int64_t end_ns)
{
    return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Operation tally: every run, segment and check is one attempt. */
struct Tally
{
    long attempted = 0;
    long failed = 0;

    void
    record(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n", what);
        }
    }
};

/** Simulated outcome of the timed phase. */
struct Outcome
{
    long steps = 0;
    long incursions = 0;
    double freqSum = 0.0;

    /** Fold in a run; false if any simulated value is not finite. */
    bool
    add(const RunResult &run)
    {
        bool finite = true;
        for (const StepRecord &s : run.steps) {
            ++steps;
            freqSum += s.frequency;
            if (s.severity.maxSeverity >= 1.0)
                ++incursions;
            finite = finite && std::isfinite(s.frequency) &&
                std::isfinite(s.voltage) && std::isfinite(s.totalPower) &&
                std::isfinite(s.severity.maxSeverity) &&
                std::isfinite(s.severity.maxTemp) &&
                std::isfinite(s.severity.maxMltd);
            for (double v : s.counters.values)
                finite = finite && std::isfinite(v);
            for (double t : s.sensorReadings)
                finite = finite && std::isfinite(t);
            for (double t : s.sensorTrue)
                finite = finite && std::isfinite(t);
        }
        for (GHz f : run.decidedFreqs)
            finite = finite && std::isfinite(f);
        return finite;
    }
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    /** The result line: the last line of stdout. */
    void
    print(const Tally &tally) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                    "\"metrics\": {",
                    tally.failed == 0 ? "true" : "false", tally.attempted,
                    tally.failed);
        for (size_t i = 0; i < entries_.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", entries_[i].name.c_str(),
                        entries_[i].value, entries_[i].unit);
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

/** One setup: the pipeline, the trained recipe and its controller. */
struct Setup
{
    std::unique_ptr<SimulationPipeline> pipeline;
    std::unique_ptr<Trained> trained;
    std::unique_ptr<BoreasController> controller;
};

Setup
makeSetup(SpanLog *log)
{
    Setup s;
    s.pipeline = std::make_unique<SimulationPipeline>(pipelineConfig());
    s.trained = trainRecipe(*s.pipeline, log);
    s.controller = s.trained->ml05();
    return s;
}

/** The workload sources of a benchmark workload, in run order. */
std::vector<std::unique_ptr<WorkloadSource>>
makeSources(const std::string &workload)
{
    std::vector<std::unique_ptr<WorkloadSource>> out;
    if (workload == "eval_grid") {
        for (const std::string &name : heldOutWorkloads())
            out.push_back(makeWorkloadSource(specSource(name)));
    } else {
        out.push_back(makeWorkloadSource(specSource("gamess")));
    }
    return out;
}

/** DecisionContext of the step just taken, as the pipeline builds it. */
DecisionContext
decisionContext(const SimulationPipeline &pipeline, const StepRecord &rec,
                GHz freq)
{
    DecisionContext ctx;
    ctx.currentFreq = freq;
    ctx.counters = &rec.counters;
    ctx.sensorReadings = rec.sensorReadings;
    ctx.vf = &pipeline.vfTable();
    return ctx;
}

// ---------------------------------------------------------------------
// Untraced: end-to-end metrics.

/** Untimed warm-up runs on a fresh setup (part of setup_s). */
void
warmUp(Setup &setup,
       const std::vector<std::unique_ptr<WorkloadSource>> &sources,
       uint64_t seed)
{
    for (size_t i = 0; i < sources.size(); ++i) {
        setup.pipeline->runWithController(
            *sources[i], deriveSeed(~seed, i), *setup.controller,
            kBaselineFrequency);
    }
}

/**
 * The timed phase of one workload, served from one setup. It runs in
 * blocks, so the caller can spread it across the whole invocation;
 * the blocks chain, and together do the same work as one long phase.
 */
class Serving
{
  public:
    virtual ~Serving() = default;

    /** Run `units` more runs (eval_grid) or segments (long_run). */
    virtual void block(int units, Tally &tally) = 0;

    /** Output check: repeat the first unit, compare runHash. */
    virtual void check(Tally &tally) = 0;

    /** Wall time of each run so far, ms. */
    virtual std::vector<double> runMs() const = 0;

    double wallS = 0.0; ///< timed wall time so far
    Outcome outcome;
};

/** eval_grid: fig7 runs cycling the held-out set, one seed per run. */
class EvalGrid : public Serving
{
  public:
    EvalGrid(Setup &setup,
             const std::vector<std::unique_ptr<WorkloadSource>> &sources,
             uint64_t seed)
        : setup_(setup), sources_(sources), seed_(seed)
    {
    }

    void
    block(int units, Tally &tally) override
    {
        for (int u = 0; u < units; ++u, ++next_) {
            const int64_t t0 = SpanLog::nowNs();
            const RunResult run = runOne(next_);
            const double s = seconds(t0, SpanLog::nowNs());
            runMs_.push_back(s * 1e3);
            wallS += s;
            if (next_ == 0)
                firstHash_ = setup_.pipeline->runHash();
            tally.record(outcome.add(run), "eval_grid run not finite");
        }
    }

    void
    check(Tally &tally) override
    {
        runOne(0);
        tally.record(setup_.pipeline->runHash() == firstHash_,
                     "eval_grid repeat runHash differs");
    }

    std::vector<double> runMs() const override { return runMs_; }

  private:
    RunResult
    runOne(int i)
    {
        return setup_.pipeline->runWithController(
            *sources_[i % sources_.size()], deriveSeed(seed_, i),
            *setup_.controller, kBaselineFrequency);
    }

    Setup &setup_;
    const std::vector<std::unique_ptr<WorkloadSource>> &sources_;
    uint64_t seed_;
    int next_ = 0;
    uint64_t firstHash_ = 0;
    std::vector<double> runMs_;
};

/**
 * long_run: one warm start, then chained continueWithController(). The
 * whole chain is one run: its segments only bound memory, and their
 * per-segment percentiles would jump between host speed modes like
 * per-step ones do.
 */
class LongRun : public Serving
{
  public:
    LongRun(Setup &setup, WorkloadSource &source, uint64_t seed,
            Tally &tally)
        : setup_(setup), source_(source), seed_(deriveSeed(seed, 0))
    {
        restart();
        // Untimed warm-up: the first segment, kept for the check.
        Outcome warmup;
        tally.record(warmup.add(segment()), "long_run warm-up not finite");
        firstHash_ = setup_.pipeline->runHash();
    }

    void
    block(int units, Tally &tally) override
    {
        for (int u = 0; u < units; ++u) {
            const int64_t t0 = SpanLog::nowNs();
            const RunResult seg = segment();
            wallS += seconds(t0, SpanLog::nowNs());
            tally.record(outcome.add(seg), "long_run segment not finite");
        }
    }

    /** The first segment again from a fresh start(). */
    void
    check(Tally &tally) override
    {
        restart();
        segment();
        tally.record(setup_.pipeline->runHash() == firstHash_,
                     "long_run repeat runHash differs");
    }

    std::vector<double> runMs() const override { return {wallS * 1e3}; }

  private:
    void
    restart()
    {
        setup_.pipeline->start(source_, seed_);
        setup_.controller->reset();
        freq_ = kBaselineFrequency;
    }

    RunResult
    segment()
    {
        return setup_.pipeline->continueWithController(
            *setup_.controller, &freq_, kSegmentSteps);
    }

    Setup &setup_;
    WorkloadSource &source_;
    uint64_t seed_;
    GHz freq_ = kBaselineFrequency;
    uint64_t firstHash_ = 0;
};

int
runUntraced(const Options &opt)
{
    Tally tally;
    const auto sources = makeSources(opt.workload);
    const bool grid = opt.workload == "eval_grid";
    const int units = grid
        ? static_cast<int>(std::lround(opt.seconds * kGridRunsPerSecond))
        : std::max(1, static_cast<int>(std::lround(
              opt.seconds * kLongStepsPerSecond / kSegmentSteps)));

    // kSetups set-ups, each followed by one block of the timed phase:
    // the timed work is spread across the invocation instead of one
    // window, which averages slow host drift. The first setup serves
    // every block; the others are timed for setup_s and discarded.
    std::vector<double> setup_s;
    Setup serving_setup;
    std::unique_ptr<Serving> serving;
    double fit_mse = 0.0;
    for (int k = 0; k < kSetups; ++k) {
        {
            const int64_t t0 = SpanLog::nowNs();
            Setup setup = makeSetup(nullptr);
            warmUp(setup, sources, opt.seed);
            setup_s.push_back(seconds(t0, SpanLog::nowNs()));
            if (k == 0)
                fit_mse = setup.trained->fitMse;
            tally.record(setup.trained->fitMse == fit_mse &&
                             std::isfinite(fit_mse),
                         "setup fit_mse differs between set-ups");
            if (k == 0)
                serving_setup = std::move(setup);
        }
        if (!serving) {
            if (grid)
                serving = std::make_unique<EvalGrid>(serving_setup, sources,
                                                     opt.seed);
            else
                serving = std::make_unique<LongRun>(
                    serving_setup, *sources[0], opt.seed, tally);
        }
        serving->block(units * (k + 1) / kSetups - units * k / kSetups,
                       tally);
    }
    serving->check(tally);

    const Outcome &o = serving->outcome;
    const double wall = serving->wallS;
    const std::vector<double> run_ms = serving->runMs();
    Metrics m;
    m.add("setup_s", median(setup_s), "s");
    m.add("runs_per_s", static_cast<double>(run_ms.size()) / wall, "1/s");
    m.add("run_ms_p50", percentile(run_ms, 50), "ms");
    m.add("run_ms_p90", percentile(run_ms, 90), "ms");
    m.add("steps_per_s", static_cast<double>(o.steps) / wall, "1/s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("avg_freq_ghz", o.freqSum / static_cast<double>(o.steps), "GHz");
    m.add("incursion_rate",
          static_cast<double>(o.incursions) / static_cast<double>(o.steps),
          "ratio");
    m.add("fit_mse", fit_mse, "ratio");
    m.print(tally);
    return 0;
}

// ---------------------------------------------------------------------
// Traced: per-layer metrics through the layer walk.

/** Untraced step time, the reference for trace.overhead_pct. */
struct Reference
{
    double seconds = 0.0;
    long steps = 0;
};

/**
 * One closed-loop run whose decision periods alternate between traced
 * and untraced. In a traced period a walk step follows every black-box
 * pipeline step, so the residual boreas.other_us compares the two under
 * the same host conditions; the walk lags the pipeline by the untraced
 * periods, which changes its inputs but not its cost. An untraced
 * period only times the pipeline steps, and interleaving the two keeps
 * host drift out of trace.overhead_pct. `decide_at_end` follows
 * continueWithController (long_run); otherwise runWithController.
 */
void
tracedLoop(SimulationPipeline &pipeline, LayerWalk &walk,
           FrequencyController &controller, SpanLog &log, int steps,
           bool decide_at_end, Reference &ref, Tally &tally)
{
    controller.reset();
    GHz freq = kBaselineFrequency;
    RunResult run;
    run.steps.reserve(steps);
    for (int s = 0; s < steps; ++s) {
        if ((s / kStepsPerDecision) % 2 == 1) {
            {
                ScopedSpan span(&log, "boreas.step");
                run.steps.push_back(pipeline.step(freq));
            }
            walk.step(freq);
        } else {
            const int64_t t0 = SpanLog::nowNs();
            run.steps.push_back(pipeline.step(freq));
            ref.seconds += seconds(t0, SpanLog::nowNs());
            ++ref.steps;
        }
        if ((s + 1) % kStepsPerDecision == 0 &&
            (decide_at_end || s + 1 < steps)) {
            const DecisionContext ctx =
                decisionContext(pipeline, run.steps.back(), freq);
            ScopedSpan span(&log, "control.decide");
            freq = controller.decide(ctx);
        }
    }
    Outcome o;
    tally.record(o.add(run), "traced run not finite");
}

/**
 * Walk fidelity: run the pipeline cold (warmStart = false) under ML05,
 * then replay its frequency schedule through a cold walk with the same
 * seed. Per-step max severity and total power must agree to 1e-9
 * relative. Returns the largest relative difference seen.
 */
double
fidelityCheck(const Trained &trained, const WorkloadSource &source,
              uint64_t seed, int steps, Tally &tally)
{
    PipelineConfig cold = pipelineConfig();
    cold.warmStart = false;
    SimulationPipeline pipeline(cold);
    const auto controller = trained.ml05();
    const auto clone = source.clone();
    const RunResult run = pipeline.runWithController(
        *clone, seed, *controller, kBaselineFrequency, steps);

    LayerWalk walk(cold, nullptr);
    walk.start(source, seed, /*warm=*/false);
    double worst = 0.0;
    auto rel = [](double a, double b) {
        const double scale = std::max(std::fabs(a), std::fabs(b));
        return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
    };
    for (const StepRecord &rec : run.steps) {
        const WalkStep w = walk.step(rec.frequency);
        worst = std::max({worst, rel(w.maxSeverity, rec.severity.maxSeverity),
                          rel(w.totalPower, rec.totalPower)});
    }
    tally.record(worst <= kFidelityRelTol,
                 "layer walk diverges from SimulationPipeline::step");
    return worst;
}

int
runTraced(const Options &opt)
{
    Tally tally;
    SpanLog log;
    const auto sources = makeSources(opt.workload);
    const bool grid = opt.workload == "eval_grid";

    Setup setup = makeSetup(&log);
    SimulationPipeline &pipeline = *setup.pipeline;
    warmUp(setup, sources, opt.seed);

    const int runs = grid ? kTracedGridRuns : 1;
    const int steps = grid ? kTraceSteps : kTracedLongSteps;
    Reference ref;
    LayerWalk walk(pipelineConfig(), &log);
    for (int i = 0; i < runs; ++i) {
        log.setRun(static_cast<uint32_t>(i + 1));
        WorkloadSource &source = *sources[i % sources.size()];
        const uint64_t seed = deriveSeed(opt.seed, i);
        {
            ScopedSpan span(&log, "boreas.start");
            pipeline.start(source, seed);
        }
        walk.start(source, seed, /*warm=*/true);
        tracedLoop(pipeline, walk, *setup.controller, log, steps,
                   /*decide_at_end=*/!grid, ref, tally);
    }

    double fidelity = 0.0;
    if (grid) {
        for (size_t w = 0; w < sources.size(); ++w) {
            fidelity = std::max(fidelity, fidelityCheck(
                *setup.trained, *sources[w], deriveSeed(opt.seed, w),
                kTraceSteps, tally));
        }
    } else {
        fidelity = fidelityCheck(*setup.trained, *sources[0],
                                 deriveSeed(opt.seed, 0), kFidelityLongSteps,
                                 tally);
    }

    if (!opt.spansPath.empty() && !log.writeJson(opt.spansPath))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spansPath.c_str());

    const auto self = log.selfSeconds();
    const auto count = log.counts();
    auto selfOf = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto countOf = [&](const char *name) {
        const auto it = count.find(name);
        return it == count.end() ? 0L : it->second;
    };
    const double walk_steps = static_cast<double>(countOf("walk.step"));
    auto perWalkStepUs = [&](double s) { return s / walk_steps * 1e6; };

    struct Layer
    {
        const char *metric;
        const char *share;
        double us;
    };
    const std::vector<Layer> layers = {
        {"workload.stimulus_us", "workload.stimulus.share",
         perWalkStepUs(selfOf("workload.stimulus") +
                       selfOf("workload.advance"))},
        {"arch.step_us", "arch.step.share", perWalkStepUs(selfOf("arch.step"))},
        {"power.unit_power_us", "power.unit_power.share",
         perWalkStepUs(selfOf("power.unit_power"))},
        {"thermal.ingest_us", "thermal.ingest.share",
         perWalkStepUs(selfOf("thermal.ingest"))},
        {"thermal.step_us", "thermal.step.share",
         perWalkStepUs(selfOf("thermal.step"))},
        {"thermal.publish_us", "thermal.publish.share",
         perWalkStepUs(selfOf("thermal.publish"))},
        {"sensors.sample_us", "sensors.sample.share",
         perWalkStepUs(selfOf("sensors.sample"))},
        {"hotspot.severity_us", "hotspot.severity.share",
         perWalkStepUs(selfOf("hotspot.severity"))},
    };
    const double step_us = selfOf("boreas.step") /
        static_cast<double>(countOf("boreas.step")) * 1e6;
    double layers_us = 0.0;
    for (const Layer &l : layers)
        layers_us += l.us;
    const double other_us = step_us - layers_us;
    const double start_ms = selfOf("boreas.start") /
        static_cast<double>(countOf("boreas.start")) * 1e3;
    const double steady_ms = selfOf("thermal.steady") /
        static_cast<double>(countOf("thermal.steady")) * 1e3;
    // The warm-start remainder (mean-power probe, grid and sensor
    // resets), timed directly in the walk: start_ms - steady_ms is the
    // difference of two ~130 ms figures and reads noise.
    const double probe_ms = selfOf("walk.warm_probe") /
        static_cast<double>(countOf("walk.warm_probe")) * 1e3;
    const double untraced_us =
        ref.seconds / static_cast<double>(ref.steps) * 1e6;

    Metrics m;
    for (const Layer &l : layers)
        m.add(l.metric, l.us, "us");
    m.add("control.decide_us", selfOf("control.decide") /
              static_cast<double>(countOf("control.decide")) * 1e6, "us");
    m.add("boreas.step_us", step_us, "us");
    m.add("boreas.other_us", other_us, "us");
    m.add("boreas.start_ms", start_ms, "ms");
    m.add("thermal.steady_ms", steady_ms, "ms");
    m.add("boreas.warm_probe_ms", probe_ms, "ms");
    m.add("boreas.dataset_s", selfOf("boreas.dataset"), "s");
    m.add("ml.fit_s", selfOf("ml.fit"), "s");
    m.add("control.phase_fit_s", selfOf("control.phase_fit"), "s");
    for (const Layer &l : layers)
        m.add(l.share, l.us / step_us, "ratio");
    m.add("boreas.other.share", other_us / step_us, "ratio");
    m.add("boreas.steps", static_cast<double>(countOf("boreas.step")),
          "count");
    m.add("boreas.starts", static_cast<double>(countOf("boreas.start")),
          "count");
    m.add("control.decisions",
          static_cast<double>(countOf("control.decide")), "count");
    m.add("dataset.rows", static_cast<double>(setup.trained->datasetRows),
          "count");
    m.add("trace.overhead_pct", (step_us / untraced_us - 1.0) * 100.0, "%");
    m.add("walk.max_rel_diff", fidelity, "ratio");
    m.print(tally);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opt = perfbench::parseArgs(argc, argv);
    return opt.trace ? perfbench::runTraced(opt)
                     : perfbench::runUntraced(opt);
}
