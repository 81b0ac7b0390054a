/**
 * @file
 * Reproduction of Secs. III-B/III-C: the oracle VF selection versus the
 * global VF limit.
 *
 * Paper numbers to reproduce: the global limit is 3.75 GHz; it is
 * optimal for only 2 of the 27 workloads; the majority of workloads run
 * ~13% below their oracle frequency; the worst-case reduction is ~26%
 * (we report both normalizations since the paper's two numbers mix
 * them: loss relative to the oracle and boost missed relative to the
 * limit).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "boreas/analysis.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("sec3_oracle_vs_global");
    SimulationPipeline pipeline;
    std::vector<const WorkloadSpec *> all;
    for (const auto &w : spec2006Suite())
        all.push_back(&w);

    const SourceSet set = opts.sources(all);
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());
    std::fprintf(stderr, "[bench] sweeping for oracle selection...\n");
    const SeveritySweep sweep =
        severitySweep(pipeline, set.sources,
                      pipeline.vfTable().frequencies(), kBenchSeed);
    const GHz global = sweep.globalLimit();

    TextTable table;
    table.setHeader({"workload", "oracle GHz", "loss vs oracle",
                     "missed boost"});
    int optimal_at_global = 0;
    std::vector<double> losses;
    std::vector<double> boosts;
    for (size_t wi = 0; wi < sweep.workloads.size(); ++wi) {
        const GHz oracle = sweep.oracleFrequency(wi);
        const double loss = 1.0 - global / oracle;
        const double boost = oracle / global - 1.0;
        losses.push_back(loss);
        boosts.push_back(boost);
        if (oracle == global)
            ++optimal_at_global;
        table.addRow({sweep.workloads[wi], TextTable::num(oracle, 2),
                      TextTable::num(loss * 100.0, 1) + "%",
                      TextTable::num(boost * 100.0, 1) + "%"});
    }
    std::printf("=== Sec. III-B/C: oracle vs global VF limit ===\n");
    table.print(std::cout);
    report.addTable("oracle_vs_global", table);

    std::printf("\n=== summary ===\n");
    std::printf("global VF limit                : %.2f GHz (paper: "
                "3.75)\n", global);
    std::printf("workloads optimal at the limit : %d of %zu (paper: "
                "2 of 27)\n", optimal_at_global,
                sweep.workloads.size());
    std::printf("median loss vs oracle          : %.1f%% (paper: "
                "~13%%)\n", percentile(losses, 50.0) * 100.0);
    std::printf("worst loss vs oracle           : %.1f%% / missed "
                "boost %.1f%% (paper: 26%%)\n",
                *std::max_element(losses.begin(), losses.end()) * 100.0,
                *std::max_element(boosts.begin(), boosts.end()) *
                    100.0);
    report.comparison("global VF limit [GHz]", "3.75",
                      TextTable::num(global, 2));
    report.comparison("workloads optimal at the limit", "2 of 27",
                      std::to_string(optimal_at_global) + " of " +
                          std::to_string(sweep.workloads.size()));
    report.comparison("median loss vs oracle [%]", "~13",
                      TextTable::num(percentile(losses, 50.0) * 100.0,
                                     1));
    report.comparison(
        "worst loss vs oracle [%]", "26",
        TextTable::num(
            *std::max_element(losses.begin(), losses.end()) * 100.0,
            1));
    return 0;
}
