/**
 * @file
 * Tests of the fleet layer (DESIGN.md §13): the global-budget cap
 * assignment, epoch chaining against a single long run, per-die fault
 * containment, heterogeneous per-die configuration, and the
 * 1-vs-8-thread rollup determinism gate.
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boreas/pipeline.hh"
#include "common/parallel.hh"
#include "control/static_controllers.hh"
#include "fleet/fleet.hh"
#include "obs/metrics.hh"
#include "test_util.hh"
#include "workload/registry.hh"

using namespace boreas;
using namespace boreas::fleet;
using boreas::test::fastPipelineConfig;

namespace
{

/** Restores the global pool to its default size on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard()
    {
        ThreadPool::resetGlobal(ThreadPool::defaultThreads());
    }
};

DieControllerFactory
fixedFactory(GHz freq)
{
    return [freq](int) {
        return std::make_unique<FixedFrequencyController>("fixed", freq);
    };
}

/** A small heterogeneous fleet on the fast 32x32 thermal grid. */
FleetConfig
smallFleet(Watts budget = 0.0)
{
    FleetConfig cfg;
    cfg.base = fastPipelineConfig();
    cfg.epochs = 2;
    cfg.epochSteps = 2 * kStepsPerDecision;
    cfg.controller.globalBudget = budget;
    const char *const workloads[] = {"mcf", "povray", "bzip2",
                                     "synthetic:nas/cg.B"};
    for (int i = 0; i < 4; ++i) {
        FleetDieSpec die;
        die.workload = workloads[i];
        die.seed = 100 + static_cast<uint64_t>(i);
        die.ambient = 42.0 + 2.0 * static_cast<double>(i);
        cfg.dies.push_back(die);
    }
    return cfg;
}

} // namespace

// --- FleetController cap assignment ------------------------------------

TEST(FleetController, UnderBudgetLeavesCapsOpen)
{
    FleetControllerConfig cfg;
    cfg.globalBudget = 100.0;
    const FleetController fc(cfg);
    std::vector<DieEpochTelemetry> dies(3);
    for (auto &d : dies) {
        d.avgPower = 20.0; // 60 W total, well under budget
        d.avgFrequency = 4.0;
    }
    const std::vector<GHz> caps = fc.assign(dies);
    ASSERT_EQ(caps.size(), 3u);
    for (const GHz cap : caps)
        EXPECT_DOUBLE_EQ(cap, kMaxFrequency);
}

TEST(FleetController, OverBudgetSharesProportionally)
{
    FleetControllerConfig cfg;
    cfg.globalBudget = 60.0;
    const FleetController fc(cfg);
    std::vector<DieEpochTelemetry> dies(2);
    dies[0].avgPower = 60.0; // 2/3 of the fleet draw
    dies[0].avgFrequency = 4.5;
    dies[1].avgPower = 30.0;
    dies[1].avgFrequency = 4.5;
    const std::vector<GHz> caps = fc.assign(dies);

    // Every cap fits its die's proportional share, and is the highest
    // grid point that does (one step up would not fit).
    const VFTable vf;
    const Watts shares[] = {40.0, 20.0};
    for (int i = 0; i < 2; ++i) {
        EXPECT_LT(caps[i], kMaxFrequency) << "die " << i;
        EXPECT_LE(fc.estimatePowerAt(dies[i], caps[i]), shares[i])
            << "die " << i;
        const GHz up = vf.stepUp(caps[i]);
        if (up > caps[i] && caps[i] > kMinFrequency) {
            EXPECT_GT(fc.estimatePowerAt(dies[i], up), shares[i])
                << "die " << i;
        }
    }
    // The heavier die keeps the same cap (same power-per-share ratio),
    // never a lower one, so the cut lands fleet-wide.
    EXPECT_GE(caps[0], caps[1] - 1e-12);
}

TEST(FleetController, IncursionStepsDownEvenUnderBudget)
{
    FleetControllerConfig cfg;
    cfg.globalBudget = 0.0; // unlimited
    cfg.incursionGuardSteps = 2;
    const FleetController fc(cfg);
    std::vector<DieEpochTelemetry> dies(2);
    dies[0].avgPower = 20.0;
    dies[0].avgFrequency = 4.5;
    dies[1] = dies[0];
    dies[1].incursionSteps = 3;
    const std::vector<GHz> caps = fc.assign(dies);
    EXPECT_DOUBLE_EQ(caps[0], kMaxFrequency);
    EXPECT_DOUBLE_EQ(caps[1], kMaxFrequency - 2 * kFrequencyStep);
}

TEST(FleetController, FailedDiesAreSkipped)
{
    FleetControllerConfig cfg;
    cfg.globalBudget = 10.0;
    const FleetController fc(cfg);
    std::vector<DieEpochTelemetry> dies(2);
    dies[0].ok = false;
    dies[0].avgPower = 1000.0; // must not count against the budget
    dies[1].avgPower = 5.0;
    dies[1].avgFrequency = 4.0;
    const std::vector<GHz> caps = fc.assign(dies);
    EXPECT_DOUBLE_EQ(caps[1], kMaxFrequency);
}

// --- Epoch chaining ------------------------------------------------------

TEST(Fleet, ChainedEpochsMatchOneLongRun)
{
    // Two 36-step continueWithController() segments must reproduce one
    // 72-step runWithController() step stream bit for bit (the fleet
    // epoch loop relies on this; DESIGN.md §13).
    const int kSteps = 6 * kStepsPerDecision;
    auto source_a = makeWorkloadSource("mix:mcf+cg.B@stagger=0.8e-3");
    auto source_b = source_a->clone();

    SimulationPipeline a(fastPipelineConfig());
    FixedFrequencyController ctrl_a("fixed", 4.5);
    const RunResult one = a.runWithController(*source_a, 7, ctrl_a,
                                              4.5, kSteps);

    SimulationPipeline b(fastPipelineConfig());
    FixedFrequencyController ctrl_b("fixed", 4.5);
    ctrl_b.reset();
    b.start(*source_b, 7);
    GHz freq = 4.5;
    std::vector<StepRecord> chained;
    for (int epoch = 0; epoch < 2; ++epoch) {
        const RunResult seg =
            b.continueWithController(ctrl_b, &freq, kSteps / 2);
        chained.insert(chained.end(), seg.steps.begin(),
                       seg.steps.end());
    }

    ASSERT_EQ(one.steps.size(), chained.size());
    for (size_t s = 0; s < chained.size(); ++s)
        ASSERT_EQ(one.steps[s].stateHash, chained[s].stateHash)
            << "step " << s;
    EXPECT_EQ(a.runHash(), b.runHash());
}

// --- FleetSimulator ------------------------------------------------------

TEST(Fleet, RollupIsIdenticalAcrossThreadCounts)
{
    GlobalPoolGuard guard;
    const FleetConfig cfg = smallFleet();
    const DieControllerFactory factory = fixedFactory(4.5);

    ThreadPool::resetGlobal(1);
    const FleetRollup serial = FleetSimulator(cfg, factory).run();

    ThreadPool::resetGlobal(8);
    const FleetRollup threaded = FleetSimulator(cfg, factory).run();

    ASSERT_EQ(serial.perDie.size(), threaded.perDie.size());
    for (size_t i = 0; i < serial.perDie.size(); ++i) {
        EXPECT_EQ(serial.perDie[i].runHash, threaded.perDie[i].runHash)
            << "die " << i;
        EXPECT_EQ(serial.perDie[i].steps, threaded.perDie[i].steps);
        EXPECT_EQ(serial.perDie[i].incursionSteps,
                  threaded.perDie[i].incursionSteps);
    }
    EXPECT_EQ(serial.rollupHash, threaded.rollupHash);
    EXPECT_EQ(serial.totalSteps, threaded.totalSteps);
}

TEST(Fleet, RepeatedRunsAccumulateCountersAndSetNoGauges)
{
    // A bench runs one simulator several times (unlimited, then
    // budgeted). Per-run figures belong to each returned rollup; the
    // registry keeps only additive counters, so no run overwrites
    // another's numbers.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    struct MetricsGuard
    {
        ~MetricsGuard()
        {
            obs::MetricsRegistry::global().setEnabled(false);
            obs::MetricsRegistry::global().reset();
        }
    } guard;
    metrics.setEnabled(true);
    metrics.reset();

    FleetSimulator sim(smallFleet(), fixedFactory(4.5));
    const FleetRollup first = sim.run();
    const FleetRollup second = sim.run();

    const obs::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_EQ(snap.counters.at("fleet.runs"), 2u);
    EXPECT_EQ(snap.counters.at("fleet.steps"),
              static_cast<uint64_t>(first.totalSteps + second.totalSteps));
    for (const auto &[name, value] : snap.gauges)
        EXPECT_NE(name.rfind("fleet.", 0), 0u)
            << "per-run gauge " << name << " = " << value;
}

TEST(Fleet, BadDieSpecsAreReportedWithoutAbortingTheFleet)
{
    FleetConfig cfg = smallFleet();
    cfg.dies[1].workload = "mix:mcf+nosuchprogram"; // parse failure
    // More cores than the 4-core die: core-count containment (the
    // pipeline itself would panic on this).
    cfg.dies[2].workload = "mix:mcf+povray+bzip2+gromacs+mcf";

    const FleetRollup r =
        FleetSimulator(cfg, fixedFactory(4.5)).run();
    EXPECT_EQ(r.dies, 4);
    EXPECT_EQ(r.failedDies, 2);
    EXPECT_FALSE(r.perDie[1].ok);
    EXPECT_NE(r.perDie[1].error.find("nosuchprogram"),
              std::string::npos);
    EXPECT_FALSE(r.perDie[2].ok);
    EXPECT_NE(r.perDie[2].error.find("cores"), std::string::npos);
    // The healthy dies still ran every configured step.
    const int64_t expected =
        static_cast<int64_t>(cfg.epochs) * cfg.epochSteps;
    EXPECT_TRUE(r.perDie[0].ok);
    EXPECT_EQ(r.perDie[0].steps, expected);
    EXPECT_TRUE(r.perDie[3].ok);
    EXPECT_EQ(r.perDie[3].steps, expected);
    EXPECT_EQ(r.totalSteps, 2 * expected);
}

TEST(Fleet, TightBudgetLowersFleetFrequency)
{
    const FleetRollup open =
        FleetSimulator(smallFleet(0.0), fixedFactory(4.75)).run();
    // A budget far below the observed draw must pull caps down.
    const Watts tight = 0.25 * open.meanPower *
                        static_cast<double>(open.dies);
    const FleetRollup capped =
        FleetSimulator(smallFleet(tight), fixedFactory(4.75)).run();
    EXPECT_LT(capped.meanFrequency, open.meanFrequency);
    EXPECT_LT(capped.meanPower, open.meanPower);
    // Caps ended below the open fleet's.
    for (const FleetDieResult &d : capped.perDie)
        EXPECT_LT(d.finalCap, kMaxFrequency) << "die " << d.die;
}

TEST(Fleet, PerDieAmbientChangesTheRunHash)
{
    FleetConfig cfg = smallFleet();
    cfg.dies[1] = cfg.dies[0]; // same workload + seed...
    cfg.dies[1].ambient = cfg.dies[0].ambient + 5.0; // ...hotter rack

    const FleetRollup r =
        FleetSimulator(cfg, fixedFactory(4.5)).run();
    ASSERT_TRUE(r.perDie[0].ok);
    ASSERT_TRUE(r.perDie[1].ok);
    EXPECT_NE(r.perDie[0].runHash, r.perDie[1].runHash);
}
