/**
 * @file
 * Reproduction of Fig. 9: cross-validated MSE versus model size in
 * bytes.
 *
 * Paper shape to reproduce: tiny models (a few shallow trees) predict
 * poorly; growing the ensemble reduces MSE until the model starts
 * memorizing the training applications, after which held-out MSE
 * flattens/rises. The selected Table II model (223 trees, depth 3,
 * < 14 KB) sits at the small-and-accurate point.
 *
 * Cross-validation is the paper's leave-one-application-out scheme; to
 * keep the sweep tractable the fold count is capped (the fold subset is
 * fixed, so configurations are comparable).
 */

#include <cstdio>
#include <iostream>

#include "boreas/dataset_builder.hh"
#include "common/table.hh"
#include "harness.hh"
#include "ml/cv.hh"
#include "ml/feature_schema.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    // Fig. 9 cross-validates over the fixed training split (the groups
    // ARE the workloads), so a single-source override is meaningless.
    requireNoWorkloadOverride(parseBenchArgs(argc, argv),
                              "fig9_model_size_mse");
    BenchReport report("fig9_model_size_mse");
    SimulationPipeline pipeline;
    DatasetConfig dcfg = datasetConfigFor(benchScale());
    std::fprintf(stderr, "[bench] generating CV dataset...\n");
    const BuiltData built = buildTrainingData(
        pipeline, wrapSpecs(trainWorkloads()).sources, dcfg);
    const Dataset data = built.severity.selectFeatures(
        featureIndicesOf(deployedFeatureNames()));
    std::fprintf(stderr, "[bench] %zu instances\n", data.numRows());

    struct Config
    {
        int trees;
        int depth;
    };
    const std::vector<Config> sweep{
        {2, 2},   {5, 2},   {15, 2},  {40, 2},  {10, 3},  {30, 3},
        {80, 3},  {150, 3}, {223, 3}, {400, 3}, {223, 5}, {400, 6},
    };
    const int folds = 5;

    std::printf("=== Fig. 9: CV MSE vs model size ===\n");
    TextTable table;
    table.setHeader({"trees", "depth", "bytes", "cv MSE", "std"});
    double best_mse = 1e9;
    size_t best_bytes = 0;
    for (const Config &cfg : sweep) {
        GBTParams params;
        params.nEstimators = cfg.trees;
        params.maxDepth = cfg.depth;
        std::fprintf(stderr, "[bench] CV %d trees depth %d...\n",
                     cfg.trees, cfg.depth);
        const CVResult cv = leaveOneGroupOutCV(data, params, folds);
        const size_t bytes =
            static_cast<size_t>(cfg.trees) *
            ((static_cast<size_t>(1) << (cfg.depth + 1)) - 1) * 4;
        table.addRow({std::to_string(cfg.trees),
                      std::to_string(cfg.depth), std::to_string(bytes),
                      TextTable::num(cv.meanMse, 5),
                      TextTable::num(cv.stdMse, 5)});
        if (cv.meanMse < best_mse) {
            best_mse = cv.meanMse;
            best_bytes = bytes;
        }
    }
    table.print(std::cout);
    report.addTable("fig9_size_vs_mse", table);

    std::printf("\nchosen model (Table II): 223 trees, depth 3 = "
                "%zu bytes (< 14 KB, paper)\n",
                static_cast<size_t>(223) * 15 * 4);
    std::printf("best CV MSE in sweep: %.5f at %zu bytes (paper "
                "curve bottoms around its selected small model; "
                "reported test MSE 0.0094)\n", best_mse, best_bytes);
    report.comparison("chosen model size [bytes]", "< 14336 (14 KB)",
                      std::to_string(static_cast<size_t>(223) * 15 * 4));
    report.comparison("best CV MSE in sweep", "~0.0094 (test)",
                      TextTable::num(best_mse, 5));
    return 0;
}
