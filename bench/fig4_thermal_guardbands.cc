/**
 * @file
 * Reproduction of Fig. 4: frequency vs. max severity for gromacs and
 * gamess under the thermal models TH-00 / TH-05 / TH-10.
 *
 * Paper shape to reproduce: TH-00 is safe for both workloads; relaxing
 * the global threshold (+5 C, +10 C) lets the controller chase higher
 * frequencies, which stays safe for steady gamess but causes hotspot
 * incursions on bursty gromacs.
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
    BenchReport report("fig4_thermal_guardbands");
    SimulationPipeline pipeline;
    const CriticalTempTable table = buildThTable(pipeline);

    // Fan the workloads x 3 relaxations out over the pool. Default is
    // the paper's bursty/steady pair; --workload swaps in one source.
    const SourceSet set = opts.sources(
        {&findWorkload("gromacs"), &findWorkload("gamess")});
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());
    const std::vector<Celsius> offsets{0.0, 5.0, 10.0};
    std::vector<RunTask> tasks;
    for (const WorkloadSource *source : set.sources) {
        for (Celsius offset : offsets) {
            tasks.push_back(
                {source,
                 [&table, offset] { return thController(table, offset); }});
        }
    }
    const std::vector<RunResult> all = runAll(pipeline.config(), tasks);

    for (size_t wi = 0; wi < set.sources.size(); ++wi) {
        const char *name = set.sources[wi]->name().c_str();
        std::printf("=== Fig. 4%s: %s ===\n",
                    std::string(name) == "gamess" ? "b" : "a", name);

        TextTable series;
        series.setHeader({"ms", "TH-00 GHz", "TH-00 sev", "TH-05 GHz",
                          "TH-05 sev", "TH-10 GHz", "TH-10 sev"});
        const std::vector<RunResult> runs(
            all.begin() + wi * offsets.size(),
            all.begin() + (wi + 1) * offsets.size());
        for (int s = 0; s < kTraceSteps; s += 6) {
            std::vector<std::string> row{
                TextTable::num(s * kTelemetryStep * 1e3, 2)};
            for (const auto &run : runs) {
                row.push_back(
                    TextTable::num(run.steps[s].frequency, 2));
                row.push_back(TextTable::num(
                    run.steps[s].severity.maxSeverity, 3));
            }
            series.addRow(row);
        }
        series.print(std::cout);
        report.addTable(std::string("fig4_trace_") + name, series);

        TextTable summary;
        summary.setHeader({"model", "avg GHz", "peak sev",
                           "incursion steps"});
        const char *names[] = {"TH-00", "TH-05", "TH-10"};
        for (size_t i = 0; i < runs.size(); ++i) {
            summary.addRow({names[i],
                            TextTable::num(runs[i].averageFrequency(),
                                           3),
                            TextTable::num(runs[i].peakSeverity(), 3),
                            std::to_string(runs[i].incursionSteps())});
        }
        std::printf("\n");
        summary.print(std::cout);
        std::printf("\n");
        report.addTable(std::string("fig4_summary_") + name, summary);
        report.comparison(
            std::string(name) + " TH-10 incursion steps",
            std::string(name) == std::string("gromacs") ? ">0" : "0",
            std::to_string(runs[2].incursionSteps()));
    }
    std::printf("paper shape: TH-00 safe on both; TH-05/TH-10 cause "
                "incursions on gromacs but not gamess\n");
    return 0;
}
