/**
 * @file
 * Reproduction of Fig. 2: the peak Hotspot-Severity of each of the 27
 * workloads over the 2.0-5.0 GHz frequency range.
 *
 * Paper shape to reproduce: severity grows with frequency for every
 * workload; no workload is safe at 5.0 GHz; every workload is safe at
 * 3.75 GHz; the workloads' highest-safe frequencies span 3.75-4.75 GHz.
 * Cells with severity >= 1.0 are marked '#' (the paper's black cells);
 * values <= 0.5 print as '.' (the paper's white cells).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "boreas/analysis.hh"
#include "common/table.hh"
#include "harness.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("fig2_severity_sweep");
    SimulationPipeline pipeline;
    std::vector<const WorkloadSpec *> all;
    for (const auto &w : spec2006Suite())
        all.push_back(&w);

    const SourceSet set = opts.sources(all);
    std::fprintf(stderr, "[bench] sweeping %s x 13 frequencies...\n",
                 opts.hasWorkload() ? set.sources[0]->name().c_str()
                                    : "27 workloads");
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());
    const SeveritySweep sweep =
        severitySweep(pipeline, set.sources,
                      pipeline.vfTable().frequencies(), kBenchSeed);

    // Sort rows by peak severity at the top frequency (the paper sorts
    // workloads by their peak severity).
    std::vector<size_t> order(sweep.workloads.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return sweep.peak[a].back() > sweep.peak[b].back();
    });

    std::printf("=== Fig. 2: peak Hotspot-Severity per (workload, "
                "frequency) ===\n");
    TextTable table;
    std::vector<std::string> header{"workload"};
    for (GHz f : sweep.freqs)
        header.push_back(TextTable::num(f, 2));
    header.push_back("oracle");
    table.setHeader(header);
    for (size_t wi : order) {
        std::vector<std::string> row{sweep.workloads[wi]};
        for (size_t fi = 0; fi < sweep.freqs.size(); ++fi) {
            const double sev = sweep.peak[wi][fi];
            if (sev >= 1.0)
                row.push_back("#" + TextTable::num(sev, 2));
            else if (sev <= 0.5)
                row.push_back(".");
            else
                row.push_back(TextTable::num(sev, 2));
        }
        row.push_back(TextTable::num(sweep.oracleFrequency(wi), 2));
        table.addRow(row);
    }
    table.print(std::cout);
    report.addTable("fig2_severity_grid", table);

    // Shape checks against the paper.
    int safe_at_5 = 0, unsafe_at_baseline = 0;
    for (size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
        if (sweep.peak[wi].back() < 1.0)
            ++safe_at_5;
        if (sweep.peak[wi][sweep.freqs.size() - 6] >= 1.0) // 3.75 GHz
            ++unsafe_at_baseline;
    }
    std::printf("\n=== shape checks ===\n");
    std::printf("workloads safe at 5.00 GHz : %d (paper: 0)\n",
                safe_at_5);
    std::printf("workloads unsafe at 3.75 GHz: %d (paper: 0)\n",
                unsafe_at_baseline);
    std::printf("globally safe VF limit      : %.2f GHz (paper: "
                "3.75 GHz)\n", sweep.globalLimit());
    report.comparison("workloads safe at 5.00 GHz", "0",
                      std::to_string(safe_at_5));
    report.comparison("workloads unsafe at 3.75 GHz", "0",
                      std::to_string(unsafe_at_baseline));
    report.comparison("globally safe VF limit [GHz]", "3.75",
                      TextTable::num(sweep.globalLimit(), 2));
    return 0;
}
