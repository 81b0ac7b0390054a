/**
 * @file
 * Example: exploring thermal-sensor placement and delay with the
 * Boreas public API (the Sec. III-D / Fig. 5 methodology).
 *
 * Demonstrates:
 *   1. reading the canonical 7-sensor bank during a run;
 *   2. quantifying how sensor location changes the observed critical
 *      temperature of one workload;
 *   3. quantifying how sensor *delay* erodes the usable headroom of a
 *      bursty workload (gromacs) vs a steady one (sjeng);
 *   4. placing sensors by k-means over observed hotspot sites.
 *
 * Build: cmake --build build --target sensor_study
 * Run:   ./build/examples/sensor_study
 */

#include <cstdio>

#include "boreas/analysis.hh"
#include "boreas/pipeline.hh"
#include "sensors/placement.hh"
#include "workload/registry.hh"

using namespace boreas;

namespace
{

void
printCrit(const char *label, Celsius c)
{
    if (c == kNoCriticalTemp)
        std::printf("  %-28s never unsafe\n", label);
    else
        std::printf("  %-28s %.1f C\n", label, c);
}

} // namespace

int
main()
{
    // 1. Watch all seven sensors during one hot run.
    SimulationPipeline pipeline;
    const RunResult run = pipeline.runConstantFrequency(
        *makeWorkloadSource("namd"), /*seed=*/3, /*freq=*/4.5);
    std::printf("== namd @ 4.5 GHz: final sensor readings ==\n");
    for (size_t t = 0; t < pipeline.sensorBank().size(); ++t) {
        std::printf("  %s: %.1f C (true %.1f C)\n",
                    pipeline.sensorBank().sensor(
                        static_cast<int>(t)).name().c_str(),
                    run.steps.back().sensorReadings[t],
                    run.steps.back().sensorTrue[t]);
    }
    std::printf("  max severity at end: %.3f\n",
                run.steps.back().severity.maxSeverity);

    // 2. Critical temperature depends on which sensor you trust.
    std::printf("\n== critical temperature of namd @ 4.5 GHz by "
                "sensor ==\n");
    const auto namd = makeWorkloadSource("namd");
    for (int sensor = 0; sensor < 4; ++sensor) {
        const CriticalTempStudy study = criticalTempStudy(
            pipeline, {namd.get()}, {4.5}, sensor, /*seed=*/3);
        printCrit(pipeline.sensorBank().sensor(sensor).name().c_str(),
                  study.crit[0][0]);
    }

    // 3. Delay study: bursty vs steady workloads.
    std::printf("\n== critical temperature @ 5.0 GHz vs sensor delay "
                "==\n");
    for (const char *name : {"gromacs", "sjeng"}) {
        std::printf(" %s:\n", name);
        for (int delay : {0, 6, 12}) {
            PipelineConfig cfg;
            cfg.sensors.delaySteps = delay;
            SimulationPipeline p(cfg);
            const auto one = makeWorkloadSource(name);
            const CriticalTempStudy study = criticalTempStudy(
                p, {one.get()}, {5.0}, kBestSensorIndex, /*seed=*/3);
            char label[64];
            std::snprintf(label, sizeof(label), "delay %4d us",
                          delay * 80);
            printCrit(label, study.crit[0][0]);
        }
    }

    // 4. K-means placement from observed hotspots.
    std::printf("\n== k-means placement over hotspot sites ==\n");
    std::vector<Point> sites;
    for (const char *name : {"povray", "namd", "hmmer"}) {
        const RunResult r = pipeline.runConstantFrequency(
            *makeWorkloadSource(name), /*seed=*/3, 4.75);
        for (const auto &rec : r.steps)
            if (rec.severity.maxSeverity > 0.9)
                sites.push_back(pipeline.thermalGrid().cellCenter(
                    rec.severity.argmaxCell));
    }
    Rng rng(3);
    const auto centers = kmeansPlacement(sites, 4, rng);
    for (const auto &c : centers)
        std::printf("  sensor site at (%.2f, %.2f) mm\n", c.x * 1e3,
                    c.y * 1e3);
    return 0;
}
