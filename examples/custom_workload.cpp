/**
 * @file
 * Example: bringing your own workload to the Boreas pipeline.
 *
 * A downstream user modeling a new application (here: a video-analytics
 * kernel alternating SIMD-dense inference bursts with streaming frame
 * I/O) defines a WorkloadSpec, sweeps it across the VF grid to find its
 * safe envelope, and checks how a trained Boreas controller — which has
 * never seen the workload — manages it.
 *
 * Build: cmake --build build --target custom_workload
 * Run:   ./build/examples/custom_workload
 */

#include <cstdio>

#include "boreas/analysis.hh"
#include "boreas/trainer.hh"
#include "control/boreas_controller.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

using namespace boreas;

namespace
{

/** A user-defined phase program: inference bursts + frame streaming. */
WorkloadSpec
videoAnalytics()
{
    WorkloadSpec spec;
    spec.name = "video-analytics";
    spec.pattern = PhasePattern::Cyclic;
    spec.seedSalt = 1001; // outside the SPEC suite's salt range
    spec.thermalScale = 1.0;

    // Burst: SIMD-dense inference over on-chip tiles (~1 ms).
    WorkloadPhase burst;
    burst.params.baseCpi = 0.45;
    burst.params.fpFraction = 0.45;
    burst.params.mulFraction = 0.05;
    burst.params.loadFraction = 0.26;
    burst.params.storeFraction = 0.08;
    burst.params.branchFraction = 0.04;
    burst.params.branchMpki = 0.5;
    burst.params.l1dMpki = 4.0;
    burst.params.intensity = 1.25;
    burst.meanDuration = 1.0e-3;
    burst.durationJitter = 0.25;

    // Frame I/O: streaming reads into the cache hierarchy (~1.5 ms).
    WorkloadPhase stream;
    stream.params.baseCpi = 1.1;
    stream.params.fpFraction = 0.05;
    stream.params.loadFraction = 0.35;
    stream.params.storeFraction = 0.15;
    stream.params.branchFraction = 0.06;
    stream.params.l1dMpki = 28.0;
    stream.params.l2Mpki = 11.0;
    stream.params.l3Mpki = 4.5;
    stream.params.mlp = 4.0;
    stream.params.intensity = 0.7;
    stream.meanDuration = 1.5e-3;
    stream.durationJitter = 0.25;

    spec.phases = {burst, stream};
    return spec;
}

} // namespace

int
main()
{
    SimulationPipeline pipeline;
    const auto custom = makeSyntheticSource(videoAnalytics());

    // 1. Characterize: peak severity across the VF grid (a one-row
    //    Fig. 2) and the workload's oracle point.
    const SeveritySweep sweep = severitySweep(
        pipeline, {custom.get()}, pipeline.vfTable().frequencies(),
        /*seed=*/11);
    std::printf("== video-analytics: peak severity by frequency ==\n");
    for (size_t fi = 0; fi < sweep.freqs.size(); ++fi) {
        std::printf("  %.2f GHz : %.3f%s\n", sweep.freqs[fi],
                    sweep.peak[0][fi],
                    sweep.peak[0][fi] >= 1.0 ? "  (unsafe)" : "");
    }
    std::printf("oracle frequency: %.2f GHz\n",
                sweep.oracleFrequency(0));

    // 2. Train Boreas on (a subset of) the SPEC training workloads —
    //    the custom workload stays unseen.
    std::printf("\n== training Boreas (custom workload excluded) ==\n");
    TrainerConfig cfg;
    cfg.data.frequencies = {3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0};
    cfg.data.walkSegments = 2;
    cfg.gbt.nEstimators = 120;
    const SourceSet train = wrapSpecs({
        &findWorkload("povray"), &findWorkload("namd"),
        &findWorkload("gromacs"), &findWorkload("libquantum"),
        &findWorkload("sjeng"), &findWorkload("milc"),
        &findWorkload("mcf"), &findWorkload("wrf"),
    });
    const TrainedBoreas trained =
        trainBoreas(pipeline, train.sources, cfg);
    std::printf("trained on %zu instances\n",
                trained.trainData.numRows());

    // 3. Deploy ML05 on the unseen custom workload.
    BoreasController ml05("ML05", &trained.model, trained.featureNames,
                          0.05, kBestSensorIndex);
    const RunResult run = pipeline.runWithController(
        *custom, /*seed=*/11, ml05, kBaselineFrequency);
    std::printf("\n== ML05 on the unseen custom workload ==\n");
    std::printf("average frequency : %.3f GHz (baseline %.2f, oracle "
                "%.2f)\n", run.averageFrequency(), kBaselineFrequency,
                sweep.oracleFrequency(0));
    std::printf("peak severity     : %.3f\n", run.peakSeverity());
    std::printf("incursion steps   : %d\n", run.incursionSteps());
    return 0;
}
