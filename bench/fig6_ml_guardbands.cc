/**
 * @file
 * Reproduction of Fig. 6: frequency vs. max severity for bzip2 under
 * the Boreas controller with guardbands 0 / 5 / 10 % (ML00/ML05/ML10).
 *
 * Paper shape to reproduce: ML00 rides the severity-1.0 line and incurs
 * hotspot steps; ML05 gets close to 1.0 (the paper notes ~0.99) without
 * crossing; ML10 stays clearly below at lower frequency.
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
    BenchReport report("fig6_ml_guardbands");
    auto ctx = buildExperimentContext();
    const SourceSet set = opts.sources({&findWorkload("bzip2")});
    const WorkloadSource *source = set.sources[0];
    if (opts.hasWorkload())
        report.workloadSource(source->name());

    // The three guardband runs are independent: run them on the pool.
    const double guardbands[] = {0.0, 0.05, 0.10};
    std::vector<RunTask> tasks;
    for (double g : guardbands) {
        tasks.push_back({source,
                         [&ctx, g] { return ctx->mlController(g); }});
    }
    const std::vector<RunResult> runs =
        runAll(ctx->pipeline.config(), tasks);

    std::printf("=== Fig. 6: %s under ML00 / ML05 / ML10 ===\n",
                source->name().c_str());
    TextTable series;
    series.setHeader({"ms", "ML00 GHz", "ML00 sev", "ML05 GHz",
                      "ML05 sev", "ML10 GHz", "ML10 sev"});
    for (int s = 0; s < kTraceSteps; s += 6) {
        std::vector<std::string> row{
            TextTable::num(s * kTelemetryStep * 1e3, 2)};
        for (const auto &run : runs) {
            row.push_back(TextTable::num(run.steps[s].frequency, 2));
            row.push_back(
                TextTable::num(run.steps[s].severity.maxSeverity, 3));
        }
        series.addRow(row);
    }
    series.print(std::cout);
    report.addTable("fig6_traces", series);

    std::printf("\n=== summary ===\n");
    TextTable summary;
    summary.setHeader({"model", "threshold", "avg GHz", "peak sev",
                       "incursion steps"});
    const char *names[] = {"ML00", "ML05", "ML10"};
    for (size_t i = 0; i < runs.size(); ++i) {
        summary.addRow({names[i],
                        TextTable::num(1.0 - guardbands[i], 2),
                        TextTable::num(runs[i].averageFrequency(), 3),
                        TextTable::num(runs[i].peakSeverity(), 3),
                        std::to_string(runs[i].incursionSteps())});
    }
    summary.print(std::cout);
    report.addTable("fig6_summary", summary);
    report.comparison("ML05 peak severity", "~0.99 (below 1.0)",
                      TextTable::num(runs[1].peakSeverity(), 3));
    report.comparison("ML10 incursion steps", "0",
                      std::to_string(runs[2].incursionSteps()));
    std::printf("\npaper shape: larger guardband -> lower frequency, "
                "lower peak severity; ML05 trades off best\n");
    return 0;
}
