/**
 * @file
 * End-to-end exercise of the workload-source subsystem: a co-scheduled
 * NAS mix and an adversarial scenario run through the fig7-style
 * controller harness, then through the boreas-trace-v1 record/replay
 * path, reporting replay fidelity (runHash equality) and record/replay
 * throughput in steps per second to BENCH_workload_replay.json.
 *
 * Checks enforced (nonzero exit on violation):
 *   - every recorded source replays with a bit-identical runHash;
 *   - the decoded trace round-trips through encode with the same
 *     payload checksum.
 *
 * `--workload <source-spec>` replaces the built-in scenario pair with
 * a single caller-chosen source.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness.hh"
#include "report.hh"
#include "workload/registry.hh"
#include "workload/trace_io.hh"

using namespace boreas;
using namespace boreas::bench;
using Clock = std::chrono::steady_clock;

namespace
{

/** The built-in scenario pair: a 4-core co-scheduled NAS mix and a
 *  core-hopping adversarial hotspot. */
const char *const kDefaultScenarios[] = {
    "mix:bt.B+is.D+ep.B+cg.B@stagger=0.8e-3",
    "adversarial:corehop",
};

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Record/replay fidelity and throughput for one source. */
struct ReplayResult
{
    std::string name;
    uint64_t checksum = 0;
    uint64_t liveHash = 0;
    uint64_t replayHash = 0;
    double liveStepsPerSec = 0.0;
    double replayStepsPerSec = 0.0;

    bool
    identical() const
    {
        return liveHash == replayHash;
    }
};

/** Run the record -> encode/decode -> replay chain for one source. */
ReplayResult
recordAndReplay(const PipelineConfig &config, const WorkloadSource &src)
{
    ReplayResult out;
    out.name = src.name();

    // Record a live constant-frequency run at the baseline.
    SimulationPipeline pipeline(config);
    TraceRecorder recorder;
    pipeline.setTraceRecorder(&recorder);
    const auto live = src.clone();
    const Clock::time_point t0 = Clock::now();
    pipeline.runConstantFrequency(*live, kBenchSeed,
                                  kBaselineFrequency);
    const Clock::time_point t1 = Clock::now();
    pipeline.setTraceRecorder(nullptr);
    out.liveHash = pipeline.runHash();
    out.liveStepsPerSec = kTraceSteps / seconds(t0, t1);

    // Round-trip through the on-disk byte format, then replay.
    TraceData data = recorder.takeData();
    const std::vector<uint8_t> bytes = encodeTrace(data);
    TraceData decoded;
    std::string error;
    if (!decodeTrace(bytes, &decoded, &error))
        boreas_fatal("trace round-trip failed: %s", error.c_str());
    out.checksum = decoded.payloadChecksum;

    TraceSource replay(std::move(decoded));
    SimulationPipeline replay_pipeline(config);
    const Clock::time_point t2 = Clock::now();
    replay_pipeline.runConstantFrequency(replay, replay.recordedSeed(),
                                         kBaselineFrequency);
    const Clock::time_point t3 = Clock::now();
    out.replayHash = replay_pipeline.runHash();
    out.replayStepsPerSec = kTraceSteps / seconds(t2, t3);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("workload_replay");

    SourceSet set = opts.sources({});
    if (opts.hasWorkload()) {
        report.workloadSource(set.sources[0]->name());
    } else {
        for (const char *spec : kDefaultScenarios)
            set.add(makeWorkloadSource(spec));
    }

    // --- fig7-style closed-loop evaluation of every scenario. ---
    auto ctx = buildExperimentContext();
    const CriticalTempTable th_table = buildThTable(ctx->pipeline);
    std::vector<ControllerFactory> models{
        [] {
            return std::make_unique<FixedFrequencyController>(
                "baseline-3.75", kBaselineFrequency);
        },
        [&th_table] { return thController(th_table, 0.0); },
        [&ctx] { return ctx->mlController(0.05); },
    };
    const auto grid =
        evaluateGrid(ctx->pipeline.config(), set.sources, models);

    std::printf("=== scenario evaluation (fig7-style controller grid) "
                "===\n");
    TextTable eval_table;
    eval_table.setHeader({"scenario", "model", "avg GHz", "vs 3.75",
                          "peak sev", "incursions"});
    for (const auto &rows : grid) {
        for (const EvalRow &row : rows) {
            eval_table.addRow({row.workload, row.controller,
                               TextTable::num(row.avgFreq, 3),
                               TextTable::num(row.normalized, 4),
                               TextTable::num(row.peakSeverity, 3),
                               std::to_string(row.incursions)});
        }
    }
    eval_table.print(std::cout);
    report.addTable("scenario_eval", eval_table);

    // --- record/replay fidelity and throughput. ---
    std::printf("\n=== boreas-trace-v1 record/replay ===\n");
    TextTable replay_table;
    replay_table.setHeader({"scenario", "checksum", "bit-identical",
                            "live steps/s", "replay steps/s"});
    bool all_identical = true;
    // The manifest hash is the first live run's: ctx->pipeline itself
    // never steps (the grid fans out over per-task pipelines).
    uint64_t manifest_hash = 0;
    for (const WorkloadSource *s : set.sources) {
        const ReplayResult r =
            recordAndReplay(ctx->pipeline.config(), *s);
        if (s == set.sources.front())
            manifest_hash = r.liveHash;
        all_identical = all_identical && r.identical();
        replay_table.addRow(
            {r.name, strfmt("%016llx",
                            static_cast<unsigned long long>(r.checksum)),
             r.identical() ? "yes" : "NO",
             TextTable::num(r.liveStepsPerSec, 0),
             TextTable::num(r.replayStepsPerSec, 0)});
        report.config("replay_steps_per_sec." + r.name,
                      r.replayStepsPerSec);
        report.traceChecksum(r.checksum);
        if (!r.identical()) {
            std::fprintf(stderr,
                         "FAIL: %s replay hash %016llx != live %016llx\n",
                         r.name.c_str(),
                         static_cast<unsigned long long>(r.replayHash),
                         static_cast<unsigned long long>(r.liveHash));
        }
    }
    replay_table.print(std::cout);
    report.addTable("record_replay", replay_table);
    report.comparison("replay bit-identical to live run", "yes",
                      all_identical ? "yes" : "NO");
    report.runHash(manifest_hash);

    std::printf("\nreplay restores the recorded per-core Rng snapshots "
                "each step, so the closed-loop trajectory is a pure "
                "function of the trace bytes\n");
    return all_identical ? 0 : 1;
}
