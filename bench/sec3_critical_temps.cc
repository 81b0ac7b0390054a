/**
 * @file
 * Reproduction of Sec. III-D: application-specific critical temperatures
 * and their sensitivity to sensor location and sensor delay.
 *
 * Paper shape to reproduce:
 *   - critical temperatures vary by >= 13 C across the top-4 sensor
 *     locations for every workload at some frequency, ~half varying by
 *     over 20 C (location study);
 *   - a longer sensor delay lowers observed critical temperatures;
 *     bursty gromacs loses safe frequencies under a 960 us delay while
 *     steady sjeng ("sing") barely cares (delay study);
 *   - under a 960 us delay the global critical-temperature table caps
 *     the attainable frequency for everything (the paper's libquantum
 *     effect).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "boreas/analysis.hh"
#include "common/table.hh"
#include "harness.hh"
#include "report.hh"

using namespace boreas;
using namespace boreas::bench;

namespace
{

std::string
fmtCrit(Celsius c)
{
    if (c == kNoCriticalTemp)
        return "-";
    return TextTable::num(c, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseBenchArgs(argc, argv);
    BenchReport report("sec3_critical_temps");
    std::vector<const WorkloadSpec *> all;
    for (const auto &w : spec2006Suite())
        all.push_back(&w);
    const std::vector<GHz> freqs{4.0, 4.25, 4.5, 4.75, 5.0};
    const SourceSet set = opts.sources(all);
    if (opts.hasWorkload())
        report.workloadSource(set.sources[0]->name());

    // ---- location study: critical temps on the top-4 core sensors.
    std::fprintf(stderr, "[bench] location study (4 sensors)...\n");
    SimulationPipeline pipeline;
    std::vector<CriticalTempStudy> by_sensor;
    for (int sensor = 0; sensor < 4; ++sensor) {
        by_sensor.push_back(criticalTempStudy(pipeline, set.sources,
                                              freqs, sensor, kBenchSeed));
    }

    const size_t num_workloads = by_sensor[0].workloads.size();
    int vary13 = 0, vary20 = 0;
    double peak_var = 0.0;
    for (size_t wi = 0; wi < num_workloads; ++wi) {
        double worst = 0.0;
        for (size_t fi = 0; fi < freqs.size(); ++fi) {
            Celsius lo = kNoCriticalTemp, hi = -kNoCriticalTemp;
            bool complete = true;
            for (int s = 0; s < 4; ++s) {
                const Celsius c = by_sensor[s].crit[wi][fi];
                if (c == kNoCriticalTemp) {
                    complete = false;
                    break;
                }
                lo = std::min(lo, c);
                hi = std::max(hi, c);
            }
            if (complete)
                worst = std::max(worst, hi - lo);
        }
        if (worst >= 13.0)
            ++vary13;
        if (worst > 20.0)
            ++vary20;
        peak_var = std::max(peak_var, worst);
    }
    std::printf("=== sensor-location sensitivity ===\n");
    std::printf("workloads with >=13 C spread across sensors 0-3: %d "
                "of 27 (paper: all)\n", vary13);
    std::printf("workloads with > 20 C spread: %d of 27 (paper: 13)\n",
                vary20);
    std::printf("peak spread: %.1f C (paper: >37 C)\n", peak_var);
    report.comparison("workloads with >=13 C sensor spread", "27 of 27",
                      std::to_string(vary13) + " of " +
                          std::to_string(num_workloads));
    report.comparison("workloads with >20 C sensor spread", "13 of 27",
                      std::to_string(vary20) + " of " +
                          std::to_string(num_workloads));
    report.comparison("peak spread [C]", ">37",
                      TextTable::num(peak_var, 1));

    // ---- delay study on the best sensor (tsens03).
    std::fprintf(stderr, "[bench] delay study...\n");
    const std::vector<int> delays{0, 2, 12}; // 0 / 160 us / 960 us
    TextTable delay_table;
    delay_table.setHeader({"workload", "GHz", "crit@0us", "crit@160us",
                           "crit@960us"});
    std::vector<CriticalTempStudy> by_delay;
    for (int d : delays) {
        PipelineConfig cfg;
        cfg.sensors.delaySteps = d;
        SimulationPipeline p(cfg);
        by_delay.push_back(criticalTempStudy(p, set.sources, freqs,
                                             kBestSensorIndex, kBenchSeed));
    }
    const std::vector<std::string> delay_names =
        opts.hasWorkload()
            ? std::vector<std::string>{set.sources[0]->name()}
            : std::vector<std::string>{"gromacs", "sjeng",
                                       "libquantum"};
    for (const std::string &name : delay_names) {
        for (size_t fi = 0; fi < freqs.size(); ++fi) {
            size_t wi = 0;
            for (; wi < by_delay[0].workloads.size(); ++wi)
                if (by_delay[0].workloads[wi] == name)
                    break;
            delay_table.addRow({name, TextTable::num(freqs[fi], 2),
                                fmtCrit(by_delay[0].crit[wi][fi]),
                                fmtCrit(by_delay[1].crit[wi][fi]),
                                fmtCrit(by_delay[2].crit[wi][fi])});
        }
    }
    std::printf("\n=== delay sensitivity (critical temp on tsens03; "
                "'-' = never unsafe) ===\n");
    delay_table.print(std::cout);
    report.addTable("delay_sensitivity", delay_table);

    // ---- the global table under a 960 us delay (Sec. III-D.2).
    const CriticalTempTable table = by_delay[2].globalTable();
    std::printf("\n=== global critical temperatures (960 us delay) "
                "===\n");
    TextTable global_table;
    global_table.setHeader({"GHz", "global critical temp"});
    for (size_t fi = 0; fi < freqs.size(); ++fi) {
        global_table.addRow({TextTable::num(freqs[fi], 2),
                             fmtCrit(table.criticalTemp[fi])});
    }
    global_table.print(std::cout);
    report.addTable("global_crit_960us", global_table);
    std::printf("(the paper's libquantum effect: low global criticals "
                "at high frequency cap every workload)\n");
    return 0;
}
