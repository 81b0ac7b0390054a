/**
 * @file
 * Offline characterization analyses of Sec. III: the peak-severity
 * sweep behind Fig. 2, the oracle / global-limit frequency selection,
 * and the critical-temperature study behind the thermal-aware models.
 */

#pragma once

#include <limits>
#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "control/thermal_controller.hh"

namespace boreas
{

/** Peak Hotspot-Severity per (workload, frequency) — the Fig. 2 data. */
struct SeveritySweep
{
    std::vector<std::string> workloads;
    std::vector<GHz> freqs;
    /** peak[w][f], indexed as the vectors above. */
    std::vector<std::vector<double>> peak;

    /**
     * Oracle frequency of workload w: the highest grid point whose
     * peak severity stays below 1.0 (Sec. III-B). Falls back to the
     * lowest grid point if nothing is safe.
     */
    GHz oracleFrequency(size_t w) const;

    /** The globally safe VF limit: min over workloads (Sec. III-C). */
    GHz globalLimit() const;

    int workloadIndex(const std::string &name) const;
};

/**
 * Run the Fig. 2 sweep: every workload source (synthetic, mix:,
 * adversarial:, trace: — anything the registry builds) at every
 * frequency for `steps` telemetry steps. Each grid point runs a
 * private clone of the source; rows are labeled with source names.
 */
SeveritySweep severitySweep(SimulationPipeline &pipeline,
                            const std::vector<const WorkloadSource *> &
                                sources,
                            const std::vector<GHz> &freqs,
                            uint64_t seed, int steps = kTraceSteps);

/** Sentinel for "severity never reached 1.0 at this point". */
constexpr Celsius kNoCriticalTemp =
    std::numeric_limits<Celsius>::infinity();

/** Per-(workload, frequency) critical temperatures (Sec. III-D.1). */
struct CriticalTempStudy
{
    std::vector<std::string> workloads;
    std::vector<GHz> freqs;
    /**
     * crit[w][f]: the lowest *sensor reading* observed while severity
     * was >= 1.0; kNoCriticalTemp if severity never got there.
     */
    std::vector<std::vector<Celsius>> crit;

    /** Global table: min across workloads per frequency (Sec. III-D.2). */
    CriticalTempTable globalTable() const;
};

/**
 * Critical-temperature characterization on the given sensor (with that
 * sensor's configured delay: the delay is what differentiates the
 * 180 us vs 960 us columns of the paper's study), over arbitrary
 * workload sources.
 */
CriticalTempStudy criticalTempStudy(SimulationPipeline &pipeline,
                                    const std::vector<
                                        const WorkloadSource *> &sources,
                                    const std::vector<GHz> &freqs,
                                    int sensor_index, uint64_t seed,
                                    int steps = kTraceSteps);

} // namespace boreas
