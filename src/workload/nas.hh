/**
 * @file
 * The NAS Parallel Benchmarks workload family (synthetic:nas).
 *
 * Phase programs for ten NPB kernels/pseudo-apps, calibrated against
 * the CPA framework's measured instruction counts (Lupones et al.,
 * instr_60s_500ms.mako: instructions executed in a 60 s run): each
 * program's base CPI is solved so its dwell-weighted mean CPI at the
 * calibration clock reproduces the measured instructions-per-second.
 * The memory/branch/FP texture of each phase encodes the kernel's
 * published character (CG sparse-irregular, EP compute-pure, IS
 * streaming-sort, ...), so the counters the pipeline sees carry the
 * right per-benchmark signature, not just the right rate.
 */

#pragma once

#include <vector>

#include "workload/workload.hh"

namespace boreas
{

/** Clock (GHz) the NAS instruction-rate calibration is anchored at. */
constexpr GHz kNasReferenceFrequency = 3.0;

/** The ten modeled NPB programs ("bt.B", "cg.B", ..., class suffix
 *  matching the CPA measurement used for calibration). */
const std::vector<WorkloadSpec> &nasSuite();

/**
 * The CPA-measured instruction rate (instructions/second) the program
 * is calibrated to at kNasReferenceFrequency. Exposed for the
 * calibration regression test.
 */
double nasTargetInstructionRate(const std::string &name);

} // namespace boreas
