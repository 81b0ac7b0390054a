/**
 * @file
 * Ablation: which telemetry does the severity predictor actually need?
 *
 * Compares held-out (test-workload) MSE of models trained on:
 *   - all 78 attributes;
 *   - the deployed top-20 (+ frequency action input);
 *   - temperature + frequency only (the "thermal-only" information a
 *     TH model sees — Sec. IV-C's argument that sensor data alone is
 *     not indicative enough);
 *   - counters + frequency with NO temperature.
 *
 * Paper shape to reproduce: top-20 matches full; dropping either the
 * microarchitectural attributes or the temperature telemetry hurts.
 */

#include <cstdio>
#include <iostream>

#include "boreas/trainer.hh"
#include "common/table.hh"
#include "harness.hh"
#include "ml/feature_schema.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("ablation_features");
    SimulationPipeline pipeline;
    const DatasetConfig dcfg = datasetConfigFor(benchScale());
    std::fprintf(stderr, "[bench] generating train data...\n");
    const BuiltData train = buildTrainingData(
        pipeline, wrapSpecs(trainWorkloads()).sources, dcfg);
    // --workload swaps the held-out evaluation stimulus; training stays
    // on the Table III split so the ablation still measures
    // generalization.
    const SourceSet test_set = opts.sources(testWorkloads());
    if (opts.hasWorkload())
        report.workloadSource(test_set.sources[0]->name());
    DatasetConfig eval_cfg = dcfg;
    eval_cfg.intensityAugments = {1.0};
    eval_cfg.walkSegments = 2;
    std::fprintf(stderr, "[bench] generating test data...\n");
    const BuiltData test =
        buildTrainingData(pipeline, test_set.sources, eval_cfg);

    struct Variant
    {
        const char *name;
        std::vector<std::string> features;
    };
    std::vector<Variant> variants;
    variants.push_back({"full-78", fullFeatureSchema()});
    variants.push_back({"top20+freq", deployedFeatureNames()});
    variants.push_back(
        {"temp+freq only", {"temperature_sensor_data", "frequency"}});
    {
        std::vector<std::string> no_temp;
        for (const auto &n : fullFeatureSchema())
            if (n != "temperature_sensor_data")
                no_temp.push_back(n);
        variants.push_back({"no-temperature", std::move(no_temp)});
    }

    std::printf("=== feature ablation (test-workload MSE) ===\n");
    TextTable table;
    table.setHeader({"variant", "features", "train MSE", "test MSE"});
    double full_mse = 0.0, top20_mse = 0.0;
    for (const auto &v : variants) {
        const auto idx = featureIndicesOf(v.features);
        const Dataset tr = train.severity.selectFeatures(idx);
        const Dataset te = test.severity.selectFeatures(idx);
        GBTRegressor model;
        model.train(tr, GBTParams{});
        const double test_mse = model.mse(te);
        if (std::string(v.name) == "full-78")
            full_mse = test_mse;
        else if (std::string(v.name) == "top20+freq")
            top20_mse = test_mse;
        table.addRow({v.name, std::to_string(v.features.size()),
                      TextTable::num(model.mse(tr), 5),
                      TextTable::num(test_mse, 5)});
        std::fprintf(stderr, "[bench] %s done\n", v.name);
    }
    table.print(std::cout);
    report.addTable("feature_ablation", table);
    report.comparison("full-78 test MSE", "baseline",
                      TextTable::num(full_mse, 5));
    report.comparison("top20+freq test MSE", "~matches full-78",
                      TextTable::num(top20_mse, 5));
    std::printf("\npaper shape: top-20 ~= full-78; removing "
                "microarchitectural attributes (temp+freq only) or the "
                "temperature telemetry degrades held-out accuracy\n");
    return 0;
}
