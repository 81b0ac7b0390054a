/**
 * @file
 * Calibration: binary-search each workload's thermalScale so that its
 * peak severity crosses 1.0 exactly between its design oracle frequency
 * and the next VF step up. Prints a C++ table ready to paste into
 * workload/spec2006.cc.
 */

#include <cstdio>
#include <vector>

#include "boreas/pipeline.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

using namespace boreas;

namespace
{

double
peakSeverityAt(SimulationPipeline &pipeline, const WorkloadSpec &w,
               GHz freq)
{
    // Match the multi-seed max statistic used by severitySweep so the
    // calibrated crossing survives seed changes.
    const auto source = makeSyntheticSource(w);
    double peak = 0.0;
    for (uint64_t s : {0ULL, 97ULL, 194ULL}) {
        peak = std::max(peak,
                        pipeline.runConstantFrequency(
                            *source, 2023 + source->groupId() + s, freq)
                            .peakSeverity());
    }
    return peak;
}

} // namespace

int
main()
{
    SimulationPipeline pipeline;
    const VFTable &vf = pipeline.vfTable();

    std::printf("const std::map<std::string, double> kThermalScale = {\n");
    for (const WorkloadSpec &base : spec2006Suite()) {
        const GHz oracle = designOracleFrequency(base.name);
        const GHz unsafe = vf.stepUp(oracle);

        // Severity is monotone in thermalScale: binary-search the scale
        // that puts peak severity at the oracle point just under 1.0,
        // then verify the next step up is unsafe.
        constexpr double kTargetSafePeak = 0.93;
        WorkloadSpec w = base;
        double lo = 0.2, hi = 4.0;
        double chosen = 1.0;
        for (int it = 0; it < 14; ++it) {
            const double mid = 0.5 * (lo + hi);
            w.thermalScale = mid;
            if (peakSeverityAt(pipeline, w, oracle) < kTargetSafePeak)
                lo = mid;
            else
                hi = mid;
            chosen = mid;
        }
        w.thermalScale = chosen;
        const double s_safe = peakSeverityAt(pipeline, w, oracle);
        const double s_unsafe = peakSeverityAt(pipeline, w, unsafe);
        std::printf("    {\"%s\", %.4f},  // safe@%.2f: %.3f  "
                    "unsafe@%.2f: %.3f\n",
                    base.name.c_str(), chosen, oracle, s_safe, unsafe,
                    s_unsafe);
        std::fflush(stdout);
    }
    std::printf("};\n");
    return 0;
}
