/**
 * @file
 * Ablation: sensor delay versus controller effectiveness.
 *
 * The paper's premise is that Boreas works "even with a conservative
 * thermal sensor delay" (960 us). This harness evaluates TH-00 and ML05
 * at sensor delays of 0, 160 us and 960 us, reporting average frequency
 * and incursions over the test set. Each configuration retrains its
 * model and rederives its TH table, since both consume the delayed
 * telemetry.
 */

#include <cstdio>
#include <iostream>

#include "common/logging.hh"
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
    BenchReport report("ablation_delay");
    const SourceSet set = opts.sources(testWorkloads());
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());
    const std::vector<int> delays{0, 2, 12};

    TextTable table;
    table.setHeader({"delay", "model", "mean vs 3.75", "incursions"});
    for (int delay : delays) {
        std::fprintf(stderr, "[bench] === delay %d steps ===\n", delay);
        PipelineConfig cfg;
        cfg.sensors.delaySteps = delay;
        SimulationPipeline pipeline(cfg);

        TrainerConfig tcfg;
        tcfg.data = datasetConfigFor(benchScale());
        const TrainedBoreas trained =
            trainBoreas(pipeline, wrapSpecs(trainWorkloads()).sources,
                        tcfg);
        const CriticalTempTable th_table = buildThTable(pipeline);

        ThermalThresholdController th00("TH-00", th_table, 0.0,
                                        kBestSensorIndex);
        BoreasController ml05("ML05", &trained.model,
                              trained.featureNames, 0.05,
                              kBestSensorIndex);

        for (FrequencyController *m :
             {static_cast<FrequencyController *>(&th00),
              static_cast<FrequencyController *>(&ml05)}) {
            OnlineStats norm;
            int incursions = 0;
            for (const WorkloadSource *source : set.sources) {
                const EvalRow row =
                    evaluateController(pipeline, *source, *m);
                norm.add(row.normalized);
                incursions += row.incursions;
            }
            table.addRow({strfmt("%d us", delay * 80), m->name(),
                          TextTable::num(norm.mean(), 4),
                          std::to_string(incursions)});
            if (delay == 12 && m->name() == std::string("ML05")) {
                report.comparison("ML05 incursions at 960 us delay",
                                  "0", std::to_string(incursions));
                report.comparison(
                    "ML05 mean freq vs 3.75 at 960 us delay", ">1.0",
                    TextTable::num(norm.mean(), 4));
            }
        }
    }
    std::printf("=== sensor-delay ablation (test set) ===\n");
    table.print(std::cout);
    report.addTable("delay_ablation", table);
    std::printf("\nexpected shape: both models lose headroom as delay "
                "grows; ML05 keeps its advantage at the paper's "
                "960 us operating point\n");
    return 0;
}
