/**
 * @file
 * Reproduction of Fig. 5: temperature traces from the 7 sensor sites
 * versus the true Hotspot-Severity, plus the k-means placement
 * methodology (Sec. III-A).
 *
 * Paper shape to reproduce: three of the seven sensors (tsens04-06)
 * only see the die slowly warming; the other four track the action with
 * up to ~20 C spread between them; even the best sensor (tsens03, near
 * the ALUs) reads well below the critical region while severity exceeds
 * 1.0 — temperature alone understates hotspot danger.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "report.hh"
#include "sensors/placement.hh"

using namespace boreas;
using namespace boreas::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("fig5_sensor_placement");
    PipelineConfig cfg;
    cfg.sensors.delaySteps = 0; // Fig. 5 shows site temperatures
    SimulationPipeline pipeline(cfg);

    // A hot, bursty workload pushed past its safe point. --workload
    // substitutes any registered source as the traced stimulus (the
    // k-means placement demo below keeps its fixed program set).
    const SourceSet set = opts.sources({&findWorkload("povray")});
    WorkloadSource &source = *set.owned[0];
    if (opts.hasWorkload())
        report.workloadSource(source.name());
    const RunResult run =
        pipeline.runConstantFrequency(source, kBenchSeed, 4.5);

    std::printf("=== Fig. 5: sensor readings vs severity (%s @ "
                "4.5 GHz) ===\n",
                source.name().c_str());
    TextTable series;
    series.setHeader({"ms", "ts00", "ts01", "ts02", "ts03", "ts04",
                      "ts05", "ts06", "maxSev"});
    for (int s = 0; s < kTraceSteps; s += 6) {
        std::vector<std::string> row{
            TextTable::num(s * kTelemetryStep * 1e3, 2)};
        for (int t = 0; t < 7; ++t)
            row.push_back(
                TextTable::num(run.steps[s].sensorTrue[t], 1));
        row.push_back(
            TextTable::num(run.steps[s].severity.maxSeverity, 3));
        series.addRow(row);
    }
    series.print(std::cout);
    report.addTable("fig5_sensor_traces", series);

    // Shape metrics.
    double spread_core = 0.0;    // max spread among tsens00-03
    double swing_far = 0.0;      // total swing of tsens04-06
    double swing_near = 0.0;     // total swing of tsens00-03
    Celsius best_at_incursion = 200.0;
    for (const auto &rec : run.steps) {
        Celsius lo = 1e9, hi = -1e9;
        for (int t = 0; t < 4; ++t) {
            lo = std::min(lo, rec.sensorTrue[t]);
            hi = std::max(hi, rec.sensorTrue[t]);
        }
        spread_core = std::max(spread_core, hi - lo);
        if (rec.severity.maxSeverity >= 1.0) {
            best_at_incursion = std::min(
                best_at_incursion,
                rec.sensorTrue[kBestSensorIndex]);
        }
    }
    auto swing = [&](int t) {
        Celsius lo = 1e9, hi = -1e9;
        for (const auto &rec : run.steps) {
            lo = std::min(lo, rec.sensorTrue[t]);
            hi = std::max(hi, rec.sensorTrue[t]);
        }
        return hi - lo;
    };
    for (int t = 0; t < 4; ++t)
        swing_near = std::max(swing_near, swing(t));
    for (int t = 4; t < 7; ++t)
        swing_far = std::max(swing_far, swing(t));

    std::printf("\n=== shape checks ===\n");
    std::printf("max spread across core sensors ts00-03: %.1f C "
                "(paper: up to ~20 C)\n", spread_core);
    std::printf("max swing, core sensors ts00-03  : %.1f C (track "
                "the action)\n", swing_near);
    std::printf("max swing, far sensors ts04-06   : %.1f C (only "
                "gradual warming)\n", swing_far);
    std::printf("tsens03 reading during severity>=1: as low as %.1f C "
                "(paper: <90-100 C while severity > 1)\n",
                best_at_incursion);
    report.comparison("max spread across core sensors [C]", "~20",
                      TextTable::num(spread_core, 1));
    report.comparison("tsens03 reading during severity>=1 [C]",
                      "<90-100", TextTable::num(best_at_incursion, 1));

    // K-means placement demo (Sec. III-A): cluster the per-step peak
    // severity locations of several hot runs.
    std::vector<Point> hotspot_sites;
    for (const char *name : {"povray", "namd", "gromacs", "hmmer"}) {
        const RunResult r = pipeline.runConstantFrequency(
            *makeSyntheticSource(findWorkload(name)), kBenchSeed, 4.75);
        for (const auto &rec : r.steps) {
            if (rec.severity.maxSeverity > 0.9) {
                hotspot_sites.push_back(pipeline.thermalGrid()
                                            .cellCenter(
                                                rec.severity.argmaxCell));
            }
        }
    }
    Rng rng(kBenchSeed);
    const auto centers = kmeansPlacement(hotspot_sites, 7, rng);
    std::printf("\n=== k-means sensor placement (7 clusters of %zu "
                "observed hotspot sites) ===\n", hotspot_sites.size());
    TextTable placement;
    placement.setHeader({"cluster", "x [mm]", "y [mm]",
                         "nearest unit"});
    for (size_t c = 0; c < centers.size(); ++c) {
        // Report the floorplan unit containing the center.
        std::string unit = "-";
        for (const auto &u : pipeline.floorplan().units()) {
            if (u.rect.contains(centers[c])) {
                unit = u.name;
                break;
            }
        }
        placement.addRow({std::to_string(c),
                          TextTable::num(centers[c].x * 1e3, 2),
                          TextTable::num(centers[c].y * 1e3, 2), unit});
    }
    placement.print(std::cout);
    report.addTable("kmeans_placement", placement);
    report.runHash(pipeline.runHash());
    std::printf("(hotspots cluster in the active core's execution "
                "region, motivating tsens03's placement)\n");
    return 0;
}
