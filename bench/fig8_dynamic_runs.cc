/**
 * @file
 * Reproduction of Fig. 8: dynamic runs of all seven unseen (test)
 * workloads for 150 timesteps (12 ms) under TH-00 and Boreas (ML05).
 *
 * Paper shape to reproduce: Boreas holds frequencies at or one-two
 * steps above the thermal model on every test workload except hmmer,
 * while severity stays below 1.0 throughout.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("fig8_dynamic_runs");
    auto ctx = buildExperimentContext();
    const CriticalTempTable th_table = buildThTable(ctx->pipeline);
    const SourceSet set = opts.sources(testWorkloads());
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());

    // All (workload, controller) runs are independent: execute the
    // whole batch on the pool, then print in the fixed task order.
    std::vector<RunTask> tasks;
    for (const WorkloadSource *source : set.sources) {
        tasks.push_back({source,
                         [&th_table] { return thController(th_table, 0.0); },
                         kBenchSeed, kBaselineFrequency});
        tasks.push_back({source,
                         [&ctx] { return ctx->mlController(0.05); },
                         kBenchSeed, kBaselineFrequency});
    }
    const std::vector<RunResult> runs =
        runAll(ctx->pipeline.config(), tasks);

    for (size_t wi = 0; wi < set.sources.size(); ++wi) {
        const std::string &name = set.sources[wi]->name();
        const RunResult &th_run = runs[2 * wi];
        const RunResult &ml_run = runs[2 * wi + 1];

        std::printf("=== Fig. 8: %s ===\n", name.c_str());
        TextTable series;
        series.setHeader({"ms", "TH-00 GHz", "TH-00 sev", "ML05 GHz",
                          "ML05 sev"});
        for (int s = 0; s < kTraceSteps; s += 6) {
            series.addRow({
                TextTable::num(s * kTelemetryStep * 1e3, 2),
                TextTable::num(th_run.steps[s].frequency, 2),
                TextTable::num(th_run.steps[s].severity.maxSeverity,
                               3),
                TextTable::num(ml_run.steps[s].frequency, 2),
                TextTable::num(ml_run.steps[s].severity.maxSeverity,
                               3),
            });
        }
        series.print(std::cout);
        report.addTable("fig8_" + name, series);
        report.comparison(name + " ML05 incursion steps", "0",
                          std::to_string(ml_run.incursionSteps()));
        std::printf("summary: TH-00 avg %.3f GHz (peak sev %.3f, "
                    "%d incursions) | ML05 avg %.3f GHz (peak sev "
                    "%.3f, %d incursions)\n\n",
                    th_run.averageFrequency(), th_run.peakSeverity(),
                    th_run.incursionSteps(), ml_run.averageFrequency(),
                    ml_run.peakSeverity(), ml_run.incursionSteps());
    }
    return 0;
}
