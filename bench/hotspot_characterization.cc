/**
 * @file
 * Ablation/characterization: how *advanced* are the hotspots?
 *
 * Quantifies the paper's Sec. I/II motivation on this substrate: at
 * each workload's first unsafe frequency, how many hotspot events
 * occur, how long do they last, and — critically — how fast do they
 * form (onset from severity 0.8 to 1.0)? Onsets at or below the
 * sensor+DVFS loop latency (960 us) are precisely the hotspots that
 * reactive control cannot catch and Boreas' prediction can.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness.hh"
#include "hotspot/events.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

namespace
{

/** One (name, stimulus-runner, frequency) characterization row. */
struct CharRow
{
    std::string name;
    GHz freq = 0.0;
    RunResult run;
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("hotspot_characterization");
    SimulationPipeline pipeline;
    const VFTable &vf = pipeline.vfTable();

    // Default: each SPEC2006 program at its first unsafe frequency.
    // With --workload: the override source at the top grid frequency
    // (no per-source design oracle exists, so probe the worst case).
    std::vector<const WorkloadSpec *> all;
    for (const auto &w : spec2006Suite())
        all.push_back(&w);
    const SourceSet set = opts.sources(all);
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());
    std::vector<CharRow> rows;
    for (const auto &src : set.owned) {
        CharRow row;
        row.name = src->name();
        row.freq = opts.hasWorkload()
            ? vf.frequencies().back()
            : vf.stepUp(designOracleFrequency(src->name()));
        row.run = pipeline.runConstantFrequency(
            *src, kBenchSeed + src->groupId(), row.freq);
        rows.push_back(std::move(row));
    }

    std::printf("=== hotspot characterization at each workload's "
                "first unsafe frequency ===\n");
    TextTable table;
    table.setHeader({"workload", "GHz", "events", "mean dur [us]",
                     "fastest onset [us]", "peak sev"});
    OnlineStats onsets;
    int faster_than_loop = 0, with_onset = 0;
    for (const CharRow &cr : rows) {
        const RunResult &run = cr.run;

        HotspotDetector detector;
        for (const auto &rec : run.steps)
            detector.observe(rec.severity);
        detector.finish();

        double mean_dur = 0.0, peak = 0.0;
        for (const auto &e : detector.events()) {
            mean_dur += e.durationSteps() * kTelemetryStep * 1e6;
            peak = std::max(peak, e.peakSeverity);
            if (e.onset >= 0.0) {
                onsets.add(e.onset);
                ++with_onset;
                if (e.onset <= kDecisionPeriod)
                    ++faster_than_loop;
            }
        }
        if (!detector.events().empty())
            mean_dur /= static_cast<double>(detector.events().size());

        const Seconds fastest = detector.fastestOnset();
        table.addRow({cr.name, TextTable::num(cr.freq, 2),
                      std::to_string(detector.events().size()),
                      TextTable::num(mean_dur, 0),
                      fastest ==
                              std::numeric_limits<Seconds>::infinity()
                          ? "-"
                          : TextTable::num(fastest * 1e6, 0),
                      TextTable::num(peak, 3)});
    }
    table.print(std::cout);
    report.addTable("hotspot_events", table);

    std::printf("\n=== onset statistics (all events with measurable "
                "onset) ===\n");
    std::printf("events with measurable onset : %d\n", with_onset);
    std::printf("mean onset                   : %.0f us\n",
                onsets.mean() * 1e6);
    std::printf("fastest onset                : %.0f us\n",
                onsets.min() * 1e6);
    std::printf("onsets <= one control period (960 us): %d of %d "
                "(%.0f%%)\n", faster_than_loop, with_onset,
                with_onset > 0
                    ? 100.0 * faster_than_loop / with_onset : 0.0);
    std::printf("\npaper motivation: advanced hotspots arise at "
                "microsecond granularity, faster than reactive "
                "sensor+DVFS loops (Sec. I)\n");
    report.comparison("events with measurable onset", ">0",
                      std::to_string(with_onset));
    report.comparison("fastest onset [us]",
                      "microsecond scale (< 960)",
                      TextTable::num(onsets.min() * 1e6, 0));
    report.comparison("onsets within one control period",
                      "majority",
                      std::to_string(faster_than_loop) + " of " +
                          std::to_string(with_onset));
    report.runHash(pipeline.runHash());
    return 0;
}
