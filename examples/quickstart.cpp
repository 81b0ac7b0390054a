/**
 * @file
 * Quickstart: the smallest useful Boreas session.
 *
 *  1. Build the simulation pipeline (Skylake-like die, thermal stack,
 *     sensors, severity metric).
 *  2. Run one workload open-loop at a fixed frequency and watch
 *     severity evolve.
 *  3. Train a small Boreas model on a reduced training set.
 *  4. Deploy it as the ML05 controller and compare the closed-loop run.
 *
 * Build: cmake --build build --target quickstart
 * Run:   ./build/examples/quickstart
 */

#include <cstdio>

#include "boreas/pipeline.hh"
#include "boreas/trainer.hh"
#include "control/boreas_controller.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

using namespace boreas;

int
main()
{
    // 1. The pipeline with default (paper) configuration.
    SimulationPipeline pipeline;
    const auto workload = makeWorkloadSource("bzip2");

    // 2. Open-loop run at an aggressive fixed frequency.
    std::printf("== open loop: bzip2 at 4.75 GHz ==\n");
    const RunResult open = pipeline.runConstantFrequency(
        *workload, /*seed=*/1, /*freq=*/4.75);
    std::printf("peak severity %.3f, incursion steps %d/%zu\n",
                open.peakSeverity(), open.incursionSteps(),
                open.steps.size());

    // 3. Train a reduced model (all 20 training workloads, but fewer
    //    frequencies and trajectories) so the example runs in about a
    //    minute. The full recipe is in bench/fig7_avg_frequency.
    std::printf("== training a reduced Boreas model (takes ~1 min) "
                "==\n");
    TrainerConfig cfg;
    cfg.data.frequencies = {3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0};
    cfg.data.walkSegments = 3;
    const TrainedBoreas trained =
        trainBoreas(pipeline, wrapSpecs(trainWorkloads()).sources, cfg);
    std::printf("trained on %zu instances, train MSE %.4f\n",
                trained.trainData.numRows(),
                trained.model.mse(trained.trainData));

    // 4. Closed loop with a 5% guardband (the paper's ML05).
    std::printf("== closed loop: ML05 on bzip2 (unseen) ==\n");
    BoreasController ml05("ML05", &trained.model, trained.featureNames,
                          /*guardband=*/0.05, kBestSensorIndex);
    const RunResult closed = pipeline.runWithController(
        *workload, /*seed=*/1, ml05, kBaselineFrequency);
    std::printf("avg frequency %.3f GHz (baseline %.2f), "
                "peak severity %.3f, incursions %d\n",
                closed.averageFrequency(), kBaselineFrequency,
                closed.peakSeverity(), closed.incursionSteps());

    std::printf("step  freq   maxSev\n");
    for (size_t s = 0; s < closed.steps.size(); s += 12) {
        std::printf("%4zu  %.2f   %.3f\n", s,
                    closed.steps[s].frequency,
                    closed.steps[s].severity.maxSeverity);
    }
    return 0;
}
