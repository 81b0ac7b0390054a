/**
 * @file
 * Reproduction of Table IV and the Sec. IV-B feature-selection study:
 * train on all 78 attributes, rank by normalized gain, and verify that
 * the top-20 subset loses no regression accuracy.
 *
 * Paper shape to reproduce: temperature_sensor_data dominates the gain
 * ranking; the top 20 features carry ~99% of total normalized gain; a
 * model trained on the top 20 matches the full model's accuracy;
 * frequency is not among the strongest raw-gain features (its effect is
 * carried by frequency-correlated counters).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "boreas/trainer.hh"
#include "common/table.hh"
#include "harness.hh"
#include "ml/feature_schema.hh"
#include "ml/gbt.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("table4_feature_importance");
    auto ctx = buildExperimentContext();
    // --workload swaps the held-out MSE stimulus; the gain ranking is a
    // property of the trained model and does not change.
    const SourceSet set = opts.sources(testWorkloads());
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());

    // The 78-attribute model exists for this study alone; the
    // controllers serve the deployed model.
    GBTRegressor study_model;
    study_model.train(ctx->trained.fullTrainData, GBTParams{}); // Table II
    const auto gains = study_model.featureImportance();
    const auto &schema = fullFeatureSchema();
    std::vector<size_t> order(gains.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return gains[a] > gains[b]; });

    std::printf("=== Table IV: top-20 attributes by normalized gain "
                "===\n");
    TextTable table;
    table.setHeader({"rank", "attribute", "gain", "in paper top-20"});
    const auto &paper20 = paperTop20Features();
    double top20_gain = 0.0;
    for (size_t i = 0; i < 20 && i < order.size(); ++i) {
        const std::string &name = schema[order[i]];
        const bool in_paper =
            std::find(paper20.begin(), paper20.end(), name) !=
            paper20.end();
        top20_gain += gains[order[i]];
        table.addRow({std::to_string(i + 1), name,
                      TextTable::num(gains[order[i]] * 100.0, 2) + "%",
                      in_paper ? "yes" : "no"});
    }
    table.print(std::cout);
    report.addTable("table4_top20", table);

    std::printf("\n=== Sec. IV-B checks ===\n");
    std::printf("temperature_sensor_data gain : %.1f%% (paper: "
                "78.1%%)\n", gains[kTempFeatureIndex] * 100.0);
    std::printf("temperature rank             : %zu of %zu (paper: "
                "1st)\n",
                static_cast<size_t>(
                    std::find(order.begin(), order.end(),
                              kTempFeatureIndex) - order.begin()) + 1,
                order.size());
    std::printf("top-20 share of total gain   : %.1f%% (paper: "
                "~99%%)\n", top20_gain * 100.0);

    // No-loss check: measured top-20(+frequency action input) vs the
    // full 78-attribute model, both evaluated on held-out workloads.
    DatasetConfig eval_cfg = datasetConfigFor(benchScale());
    eval_cfg.intensityAugments = {1.0};
    eval_cfg.walkSegments = 2;
    const BuiltData eval =
        buildTrainingData(ctx->pipeline, set.sources, eval_cfg);
    const double full_mse = study_model.mse(eval.severity);
    const double deployed_mse = evaluateMse(
        ctx->trained.model, ctx->trained.featureNames, eval.severity);
    std::printf("test MSE, full 78 features   : %.5f\n", full_mse);
    std::printf("test MSE, deployed top-20    : %.5f (paper: no loss "
                "vs full; reported 0.0094)\n", deployed_mse);
    report.comparison("temperature_sensor_data gain", "78.1%",
                      TextTable::num(gains[kTempFeatureIndex] * 100.0,
                                     1) + "%");
    report.comparison("top-20 share of total gain", "~99%",
                      TextTable::num(top20_gain * 100.0, 1) + "%");
    report.comparison("test MSE, deployed top-20", "0.0094",
                      TextTable::num(deployed_mse, 5));
    report.comparison("test MSE, full 78 features", "no loss vs top-20",
                      TextTable::num(full_mse, 5));
    return 0;
}
