/**
 * @file
 * Example: a head-to-head comparison of hotspot-mitigation policies on
 * one workload — the paper's Sec. V narrative in miniature.
 *
 * Runs gamess (unseen by the model) under:
 *   - the static 3.75 GHz global limit,
 *   - the per-workload oracle frequency,
 *   - the reactive thermal controller TH-00,
 *   - Boreas ML05,
 * and prints the frequency/severity trajectories side by side.
 *
 * Build: cmake --build build --target mitigation_comparison
 * Run:   ./build/examples/mitigation_comparison
 */

#include <cstdio>

#include "boreas/analysis.hh"
#include "boreas/trainer.hh"
#include "control/boreas_controller.hh"
#include "control/static_controllers.hh"
#include "control/thermal_controller.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

using namespace boreas;

int
main()
{
    SimulationPipeline pipeline;
    const auto workload = makeSyntheticSource(findWorkload("gamess"));
    const SourceSet train = wrapSpecs(trainWorkloads());

    // Offline artifacts: TH table + trained model (reduced scale so
    // the example runs in about a minute).
    std::printf("deriving TH-00 critical temperatures...\n");
    const CriticalTempStudy study = criticalTempStudy(
        pipeline, train.sources, pipeline.vfTable().frequencies(),
        kBestSensorIndex, /*seed=*/21, /*steps=*/100);

    std::printf("training Boreas...\n");
    TrainerConfig cfg;
    cfg.data.frequencies = {3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0};
    cfg.data.walkSegments = 2;
    cfg.data.traceSteps = 100;
    const TrainedBoreas trained = trainBoreas(pipeline, train.sources, cfg);

    // The lineup.
    FixedFrequencyController global("global-3.75", kBaselineFrequency);
    const SeveritySweep sweep = severitySweep(
        pipeline, {workload.get()}, pipeline.vfTable().frequencies(),
        /*seed=*/21);
    FixedFrequencyController oracle("oracle", sweep.oracleFrequency(0));
    ThermalThresholdController th00("TH-00", study.globalTable(), 0.0,
                                    kBestSensorIndex);
    BoreasController ml05("ML05", &trained.model, trained.featureNames,
                          0.05, kBestSensorIndex);

    std::printf("\n== gamess under four policies ==\n");
    std::printf("%-12s %9s %9s %10s\n", "policy", "avg GHz", "peak sev",
                "incursions");
    FrequencyController *policies[] = {&global, &oracle, &th00, &ml05};
    RunResult runs[4];
    for (int i = 0; i < 4; ++i) {
        runs[i] = pipeline.runWithController(
            *workload, /*seed=*/21, *policies[i], kBaselineFrequency);
        std::printf("%-12s %9.3f %9.3f %10d\n", policies[i]->name(),
                    runs[i].averageFrequency(), runs[i].peakSeverity(),
                    runs[i].incursionSteps());
    }

    std::printf("\ntrajectories (GHz @ every decision):\n");
    std::printf("%6s %10s %10s %10s %10s\n", "ms", "global", "oracle",
                "TH-00", "ML05");
    for (int s = 0; s < kTraceSteps; s += kStepsPerDecision) {
        std::printf("%6.2f", s * kTelemetryStep * 1e3);
        for (const auto &run : runs)
            std::printf(" %10.2f", run.steps[s].frequency);
        std::printf("\n");
    }

    std::printf("\nthe oracle knows gamess' limit in advance; Boreas "
                "discovers comparable headroom from telemetry alone, "
                "while TH-00 is pinned by the training set's worst "
                "case.\n");
    return 0;
}
