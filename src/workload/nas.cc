#include "workload/nas.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"

namespace boreas
{

namespace
{

/**
 * Instructions executed in a 60-second run, from the CPA framework's
 * instr_60s_500ms.mako measurement table (one class per benchmark,
 * chosen so every kernel has a measurement: class B where available,
 * else C/D).
 */
const std::map<std::string, double> kNasInstr60s = {
    {"bt.B", 325241149428.0}, {"cg.B", 133950661685.0},
    {"dc.B", 159942264744.0}, {"ep.B", 143215037623.0},
    {"ft.B", 348601899662.0}, {"is.D", 78180855123.0},
    {"lu.B", 253106666325.0}, {"mg.C", 342277037597.0},
    {"sp.B", 274977528222.0}, {"ua.B", 293266380006.0},
};

/**
 * Dynamic-energy scales, hand-assigned by compute-boundness within the
 * range the calibrated SPEC suite spans (gromacs 0.45 ... libquantum
 * 4.0): pure-compute kernels run hot, bandwidth-bound ones cool.
 */
const std::map<std::string, double> kNasThermalScale = {
    {"bt.B", 1.00}, {"cg.B", 0.70}, {"dc.B", 0.80}, {"ep.B", 1.25},
    {"ft.B", 1.05}, {"is.D", 0.60}, {"lu.B", 1.15}, {"mg.C", 0.95},
    {"sp.B", 1.00}, {"ua.B", 0.90},
};

/** seedSalt offset keeping NAS groups disjoint from SPEC's 1..27. */
constexpr uint64_t kNasSeedSaltBase = 100;

/**
 * Author a phase at a *relative* CPI weight and solve its baseCpi so
 * the phase's effective CPI at the calibration clock equals
 * weight * target_cpi. effectiveCpi is baseCpi plus miss-event
 * penalties, so the solve is exact unless the floor clamps.
 */
WorkloadPhase
cal(PhaseParams p, double cpi_weight, double target_cpi, Seconds dwell,
    double jitter = 0.3)
{
    static const IntervalCore core{CoreParams{}};
    PhaseParams probe = p;
    probe.baseCpi = 0.0;
    const double penalty =
        core.effectiveCpi(probe, kNasReferenceFrequency);
    p.baseCpi = std::max(0.15, cpi_weight * target_cpi - penalty);
    return {p, dwell, jitter};
}

std::vector<WorkloadSpec>
buildNasSuite()
{
    std::vector<WorkloadSpec> suite;
    auto add = [&](std::string name, std::vector<WorkloadPhase> phases,
                   PhasePattern pattern = PhasePattern::Cyclic) {
        WorkloadSpec spec;
        spec.name = std::move(name);
        spec.phases = std::move(phases);
        spec.pattern = pattern;
        spec.thermalScale = kNasThermalScale.at(spec.name);
        spec.testSet = false;
        spec.seedSalt = kNasSeedSaltBase + suite.size() + 1;
        suite.push_back(std::move(spec));
    };
    auto target = [](const char *name) {
        const double ips = kNasInstr60s.at(name) / 60.0;
        return kNasReferenceFrequency * 1e9 / ips;
    };

    // bt: block-tridiagonal CFD; regular FP with solver sweeps.
    {
        const double t = target("bt.B");
        add("bt.B", {
            cal({.fpFraction = 0.42, .loadFraction = 0.32,
                 .storeFraction = 0.13, .branchFraction = 0.04,
                 .branchMpki = 0.8, .l1dMpki = 9, .l2Mpki = 3,
                 .l3Mpki = 0.9, .mlp = 2.8, .intensity = 1.0},
                1.10, t, 2.5e-3),
            cal({.fpFraction = 0.46, .loadFraction = 0.28,
                 .storeFraction = 0.11, .branchFraction = 0.04,
                 .branchMpki = 0.6, .l1dMpki = 5, .l2Mpki = 1.2,
                 .l3Mpki = 0.3, .mlp = 2.5, .intensity = 1.1},
                0.85, t, 1.67e-3),
        });
    }

    // cg: conjugate gradient; sparse gather, irregular memory.
    {
        const double t = target("cg.B");
        add("cg.B", {
            cal({.fpFraction = 0.30, .loadFraction = 0.35,
                 .storeFraction = 0.08, .branchFraction = 0.08,
                 .branchMpki = 4.0, .l1dMpki = 25, .l2Mpki = 10,
                 .l3Mpki = 3.8, .dtlbMpki = 4.0, .mlp = 1.8,
                 .intensity = 0.9}, 1.10, t, 2.0e-3),
            cal({.fpFraction = 0.34, .loadFraction = 0.30,
                 .storeFraction = 0.08, .branchFraction = 0.07,
                 .branchMpki = 3.0, .l1dMpki = 14, .l2Mpki = 5,
                 .l3Mpki = 1.8, .dtlbMpki = 2.5, .mlp = 2.0,
                 .intensity = 0.95}, 0.80, t, 1.0e-3),
        }, PhasePattern::Random);
    }

    // dc: data cube; integer aggregation over large tables, branchy.
    {
        const double t = target("dc.B");
        add("dc.B", {
            cal({.fpFraction = 0.02, .loadFraction = 0.33,
                 .storeFraction = 0.13, .branchFraction = 0.17,
                 .branchMpki = 7.0, .l1dMpki = 18, .l2Mpki = 7,
                 .l3Mpki = 2.5, .dtlbMpki = 4.0, .mlp = 1.6,
                 .intensity = 0.85}, 1.12, t, 1.8e-3),
            cal({.fpFraction = 0.02, .loadFraction = 0.30,
                 .storeFraction = 0.14, .branchFraction = 0.18,
                 .branchMpki = 5.0, .l1dMpki = 10, .l2Mpki = 3,
                 .l3Mpki = 1.0, .dtlbMpki = 2.0, .intensity = 0.95},
                0.82, t, 1.2e-3),
        }, PhasePattern::Random);
    }

    // ep: embarrassingly parallel; pure FP random-number compute,
    // tiny working set — the suite's hottest kernel.
    {
        const double t = target("ep.B");
        add("ep.B", {
            cal({.fpFraction = 0.48, .mulFraction = 0.05,
                 .loadFraction = 0.22, .storeFraction = 0.07,
                 .branchFraction = 0.07, .branchMpki = 1.0,
                 .l1dMpki = 1.5, .l2Mpki = 0.2, .l3Mpki = 0.05,
                 .activityNoise = 0.015, .intensity = 1.2},
                1.0, t, 6.0e-3, 0.1),
        });
    }

    // ft: 3-D FFT; compute bursts alternating with strided
    // all-to-all transposes.
    {
        const double t = target("ft.B");
        add("ft.B", {
            cal({.fpFraction = 0.44, .mulFraction = 0.04,
                 .loadFraction = 0.28, .storeFraction = 0.11,
                 .branchFraction = 0.05, .branchMpki = 0.8,
                 .l1dMpki = 5, .l2Mpki = 1.5, .l3Mpki = 0.4,
                 .intensity = 1.15}, 0.80, t, 1.6e-3),
            cal({.fpFraction = 0.30, .loadFraction = 0.34,
                 .storeFraction = 0.15, .branchFraction = 0.04,
                 .branchMpki = 0.6, .l1dMpki = 20, .l2Mpki = 9,
                 .l3Mpki = 3.0, .dtlbMpki = 3.0, .mlp = 3.2,
                 .intensity = 0.85}, 1.25, t, 1.28e-3),
        });
    }

    // is: integer bucket sort; pure streaming permutation, lowest
    // instruction rate of the deck.
    {
        const double t = target("is.D");
        add("is.D", {
            cal({.fpFraction = 0.01, .loadFraction = 0.36,
                 .storeFraction = 0.18, .branchFraction = 0.10,
                 .branchMpki = 6.0, .l1dMpki = 35, .l2Mpki = 14,
                 .l3Mpki = 5.5, .dtlbMpki = 6.0, .mlp = 1.6,
                 .activityNoise = 0.015, .intensity = 0.8},
                1.0, t, 7.0e-3, 0.1),
        });
    }

    // lu: LU solver (SSOR); regular FP, compute-leaning sweeps.
    {
        const double t = target("lu.B");
        add("lu.B", {
            cal({.fpFraction = 0.44, .loadFraction = 0.29,
                 .storeFraction = 0.11, .branchFraction = 0.05,
                 .branchMpki = 1.2, .l1dMpki = 6, .l2Mpki = 1.8,
                 .l3Mpki = 0.5, .intensity = 1.1}, 0.90, t, 2.4e-3),
            cal({.fpFraction = 0.38, .loadFraction = 0.32,
                 .storeFraction = 0.13, .branchFraction = 0.05,
                 .branchMpki = 1.5, .l1dMpki = 11, .l2Mpki = 4,
                 .l3Mpki = 1.4, .mlp = 2.6, .intensity = 0.95},
                1.15, t, 1.6e-3),
        });
    }

    // mg: multigrid; stresses every level of the memory hierarchy
    // as the V-cycle walks grid resolutions.
    {
        const double t = target("mg.C");
        add("mg.C", {
            cal({.fpFraction = 0.40, .loadFraction = 0.33,
                 .storeFraction = 0.13, .branchFraction = 0.03,
                 .branchMpki = 0.5, .l1dMpki = 16, .l2Mpki = 7,
                 .l3Mpki = 2.6, .mlp = 3.4, .intensity = 0.95},
                1.15, t, 2.0e-3),
            cal({.fpFraction = 0.43, .loadFraction = 0.29,
                 .storeFraction = 0.11, .branchFraction = 0.04,
                 .branchMpki = 0.7, .l1dMpki = 6, .l2Mpki = 1.5,
                 .l3Mpki = 0.4, .intensity = 1.1}, 0.70, t, 1.0e-3),
        });
    }

    // sp: scalar pentadiagonal CFD; bt-like but more bandwidth-bound.
    {
        const double t = target("sp.B");
        add("sp.B", {
            cal({.fpFraction = 0.41, .loadFraction = 0.33,
                 .storeFraction = 0.13, .branchFraction = 0.04,
                 .branchMpki = 0.7, .l1dMpki = 12, .l2Mpki = 5,
                 .l3Mpki = 1.6, .mlp = 3.0, .intensity = 0.95},
                1.12, t, 2.2e-3),
            cal({.fpFraction = 0.45, .loadFraction = 0.29,
                 .storeFraction = 0.11, .branchFraction = 0.04,
                 .branchMpki = 0.5, .l1dMpki = 6, .l2Mpki = 2,
                 .l3Mpki = 0.6, .intensity = 1.05}, 0.80, t, 1.32e-3),
        });
    }

    // ua: unstructured adaptive mesh; FP with pointer-driven
    // irregular access.
    {
        const double t = target("ua.B");
        add("ua.B", {
            cal({.fpFraction = 0.36, .loadFraction = 0.33,
                 .storeFraction = 0.11, .branchFraction = 0.09,
                 .branchMpki = 3.5, .l1dMpki = 13, .l2Mpki = 5,
                 .l3Mpki = 1.6, .dtlbMpki = 3.0, .mlp = 2.0,
                 .intensity = 0.95}, 1.10, t, 1.8e-3),
            cal({.fpFraction = 0.40, .loadFraction = 0.29,
                 .storeFraction = 0.10, .branchFraction = 0.07,
                 .branchMpki = 2.0, .l1dMpki = 7, .l2Mpki = 2,
                 .l3Mpki = 0.6, .intensity = 1.05}, 0.85, t, 1.2e-3),
        }, PhasePattern::Random);
    }

    boreas_assert(suite.size() == kNasInstr60s.size(),
                  "expected %zu NAS workloads, got %zu",
                  kNasInstr60s.size(), suite.size());
    return suite;
}

} // namespace

const std::vector<WorkloadSpec> &
nasSuite()
{
    static const std::vector<WorkloadSpec> suite = buildNasSuite();
    return suite;
}

double
nasTargetInstructionRate(const std::string &name)
{
    auto it = kNasInstr60s.find(name);
    boreas_assert(it != kNasInstr60s.end(), "no NAS measurement for '%s'",
                  name.c_str());
    return it->second / 60.0;
}

} // namespace boreas
