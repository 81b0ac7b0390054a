/**
 * @file
 * RunManifest: the who/what/how of one experiment run, embedded in
 * every BENCH_<id>.json artifact (DESIGN.md §8) so a measured number
 * can always be traced back to the exact configuration, seed, thread
 * count and pipeline state fingerprint that produced it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace boreas::obs
{

/** Identity and provenance of one experiment run. */
struct RunManifest
{
    /** Experiment id (the <id> of BENCH_<id>.json). */
    std::string experiment;
    /** Bench scale ("small" / "full" / "paper"), "" when not scaled. */
    std::string scale;
    /** Parallel lanes the run was executed with. */
    int threads = 1;
    /**
     * Workload-source spec string driving the run (registry grammar,
     * e.g. "synthetic:spec2006/astar" or "adversarial:corehop"); ""
     * for benches that sweep whole suites rather than one source.
     */
    std::string workloadSource;
    /**
     * Clone the dispatched DCT kernels run on this host ("avx512f",
     * "avx2", "default", or "none" when the build compiles the clones
     * out); "" when not recorded.
     */
    std::string simdDispatch;
    /**
     * Host CPU model (the "model name" line of /proc/cpuinfo), so a
     * timing can be read against its hardware; "" when unreadable.
     */
    std::string cpuModel;
    /**
     * boreas-trace-v1 payload checksum when the run recorded or
     * replayed a trace (valid when hasTraceChecksum).
     */
    uint64_t traceChecksum = 0;
    bool hasTraceChecksum = false;
    /**
     * Dies simulated when the run is a fleet-scale experiment
     * (src/fleet); 0 for single-die benches, which omit the field.
     */
    int fleetDies = 0;
    /** Base RNG seed of the run. */
    uint64_t seed = 0;
    /** Pipeline runHash fingerprint (valid when hasRunHash). */
    uint64_t runHash = 0;
    bool hasRunHash = false;
    /** Wall-clock duration of the whole bench, in seconds. */
    double wallSeconds = 0.0;
    /** Free-form configuration key/values, emitted in insertion order. */
    std::vector<std::pair<std::string, std::string>> config;

    void
    addConfig(std::string key, std::string value)
    {
        config.emplace_back(std::move(key), std::move(value));
    }
};

} // namespace boreas::obs
