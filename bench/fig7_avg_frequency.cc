/**
 * @file
 * Reproduction of Fig. 7 (and the abstract's headline numbers):
 * average frequency of every unseen (test) workload under each model,
 * normalized to the 3.75 GHz globally-safe baseline.
 *
 * Paper shape to reproduce:
 *   - TH-00 improves ~5.7% over the baseline with no incursions;
 *   - ML00 is fastest but has hotspot incursions (unreliable);
 *   - ML10 is safe but conservative (can lose to TH, e.g. on hmmer);
 *   - ML05 is the sweet spot: ~4.5% over TH-00 on average (up to
 *     ~9.6% on bzip2) with zero incursions.
 */

#include <cstdio>
#include <iostream>
#include <map>

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
    BenchReport report("fig7_avg_frequency");
    auto ctx = buildExperimentContext();
    const SourceSet set = opts.sources(testWorkloads());
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());

    // One factory per model: every (workload, model) run gets its own
    // controller instance so the whole grid fans out over the pool.
    std::vector<ControllerFactory> models{
        [] {
            return std::make_unique<FixedFrequencyController>(
                "baseline-3.75", kBaselineFrequency);
        },
        [&ctx] { return ctx->thController(0.0); },
        [&ctx] { return ctx->crController(); },
        [&ctx] { return ctx->mlController(0.0); },
        [&ctx] { return ctx->mlController(0.05); },
        [&ctx] { return ctx->mlController(0.10); },
    };
    const std::vector<std::vector<EvalRow>> grid =
        evaluateGrid(ctx->pipeline.config(), set.sources, models);

    TextTable table;
    table.setHeader({"workload", "model", "avg GHz", "vs 3.75",
                     "peak sev", "incursions"});

    std::map<std::string, OnlineStats> norm_by_model;
    std::map<std::string, int> incursions_by_model;
    std::map<std::string, double> ml05_vs_th;

    for (size_t wi = 0; wi < grid.size(); ++wi) {
        double th_norm = 1.0, ml05_norm = 1.0;
        for (const EvalRow &row : grid[wi]) {
            table.addRow({row.workload, row.controller,
                          TextTable::num(row.avgFreq, 3),
                          TextTable::num(row.normalized, 4),
                          TextTable::num(row.peakSeverity, 3),
                          std::to_string(row.incursions)});
            norm_by_model[row.controller].add(row.normalized);
            incursions_by_model[row.controller] += row.incursions;
            if (row.controller == std::string("TH-00"))
                th_norm = row.normalized;
            if (row.controller == std::string("ML05"))
                ml05_norm = row.normalized;
        }
        ml05_vs_th[set.sources[wi]->name()] = ml05_norm / th_norm - 1.0;
    }

    std::printf("=== Fig. 7: per-workload normalized average frequency "
                "(test set) ===\n");
    table.print(std::cout);
    report.addTable("fig7_per_workload", table);

    std::printf("\n=== Fig. 7 summary (mean over unseen workloads) "
                "===\n");
    TextTable summary;
    summary.setHeader({"model", "mean vs 3.75", "total incursions"});
    for (const auto &[model, stats] : norm_by_model) {
        summary.addRow({model, TextTable::num(stats.mean(), 4),
                        std::to_string(incursions_by_model[model])});
    }
    summary.print(std::cout);
    report.addTable("fig7_summary", summary);

    const double th = norm_by_model["TH-00"].mean();
    const double ml05m = norm_by_model["ML05"].mean();
    double best_gain = 0.0;
    std::string best_wl;
    for (const auto &[wl, gain] : ml05_vs_th) {
        if (gain > best_gain) {
            best_gain = gain;
            best_wl = wl;
        }
    }

    std::printf("\n=== headline comparison ===\n");
    std::printf("TH-00 over baseline : measured %+.1f%%   (paper: "
                "+5.7%%)\n", (th - 1.0) * 100.0);
    std::printf("ML05 over TH-00     : measured %+.1f%%   (paper: "
                "+4.5%% avg)\n", (ml05m / th - 1.0) * 100.0);
    std::printf("best ML05 gain      : measured %+.1f%% on %s "
                "(paper: +9.6%% on bzip2)\n", best_gain * 100.0,
                best_wl.c_str());
    std::printf("ML05 incursions     : %d (paper: 0)\n",
                incursions_by_model["ML05"]);
    std::printf("ML00 incursions     : %d (paper: >0, unreliable)\n",
                incursions_by_model["ML00"]);

    const auto pct = [](double frac) {
        const std::string s = TextTable::num(frac * 100.0, 1) + "%";
        return frac >= 0.0 ? "+" + s : s;
    };
    report.comparison("TH-00 over baseline", "+5.7%", pct(th - 1.0));
    report.comparison("ML05 over TH-00", "+4.5% avg",
                      pct(ml05m / th - 1.0));
    report.comparison("best ML05 gain", "+9.6% on bzip2",
                      pct(best_gain) + " on " + best_wl);
    report.comparison("ML05 incursions", "0",
                      std::to_string(incursions_by_model["ML05"]));
    report.comparison("ML00 incursions", ">0 (unreliable)",
                      std::to_string(incursions_by_model["ML00"]));

    return 0;
}
