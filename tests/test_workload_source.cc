/**
 * @file
 * Tests of the pluggable workload-source subsystem (DESIGN.md §10):
 * the registry grammar, the spec-vs-source pipeline byte-identity
 * contract, mix: staggered starts, the NAS instruction-rate
 * calibration, the adversarial scenarios, and the WorkloadRun
 * dwell-carry regression (phases shorter than one telemetry step).
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boreas/pipeline.hh"
#include "test_util.hh"
#include "workload/adversarial.hh"
#include "workload/mix.hh"
#include "workload/nas.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"
#include "workload/workload.hh"

using namespace boreas;
using boreas::test::fastPipelineConfig;

// --- WorkloadRun dwell bookkeeping -------------------------------------

TEST(WorkloadRun, DwellShorterThanStepCarriesDeficit)
{
    // Three phases of exactly 30 us each (no jitter), advanced in
    // 80 us telemetry steps: every step crosses 2-3 phase boundaries
    // and the fractional remainder must carry, so after t seconds the
    // active phase is floor(t / 30us) mod 3 exactly. A version that
    // reset the dwell instead of carrying the deficit drifts off this
    // schedule within a few steps.
    WorkloadSpec spec;
    spec.name = "microphase";
    spec.pattern = PhasePattern::Cyclic;
    for (int i = 0; i < 3; ++i) {
        WorkloadPhase ph;
        ph.params.baseCpi = 1.0 + i;
        ph.meanDuration = 30e-6;
        ph.durationJitter = 0.0;
        spec.phases.push_back(ph);
    }

    WorkloadRun run(spec, 7);
    const Seconds dt = kTelemetryStep; // 80 us
    for (int step = 1; step <= 200; ++step) {
        run.advance(dt);
        const double t = static_cast<double>(step) * dt;
        // Nudge off the boundary: a dwell expiring exactly at t counts
        // as switched (advance() switches on <= 0).
        const int expected =
            static_cast<int>(std::floor(t / 30e-6 + 1e-9)) % 3;
        ASSERT_EQ(run.phaseIndex(), expected)
            << "dwell carry drifted at step " << step;
    }
}

// --- Registry grammar --------------------------------------------------

TEST(WorkloadRegistry, BareNamesResolveAcrossFamilies)
{
    EXPECT_EQ(makeWorkloadSource("mcf")->name(),
              "synthetic:spec2006/mcf");
    EXPECT_EQ(makeWorkloadSource("cg.B")->name(), "synthetic:nas/cg.B");
    EXPECT_EQ(makeWorkloadSource("synthetic:nas/ep.B")->name(),
              "synthetic:nas/ep.B");
}

TEST(WorkloadRegistry, MalformedSpecsReportErrors)
{
    const std::vector<std::string> bad = {
        "",
        "nosuchprogram",
        "synthetic:spec2006/nosuchprogram",
        "synthetic:unknownfamily/mcf",
        "mix:",
        "mix:mcf+nosuchprogram",
        "mix:mcf+cg.B@stagger=banana",
        "adversarial:meltdown",
        "trace:/nonexistent/file.trace",
        "unknown-scheme:whatever",
    };
    for (const auto &spec : bad) {
        std::string error;
        EXPECT_EQ(tryMakeWorkloadSource(spec, &error), nullptr)
            << "'" << spec << "' should not parse";
        EXPECT_FALSE(error.empty()) << "'" << spec << "'";
    }
}

TEST(WorkloadRegistry, MixParsesProgramsAndStagger)
{
    auto source = makeWorkloadSource("mix:mcf+cg.B+povray@stagger=1e-3");
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->numCores(), 3);
    auto *mix = dynamic_cast<MixSource *>(source.get());
    ASSERT_NE(mix, nullptr);
    ASSERT_EQ(mix->programs().size(), 3u);
    EXPECT_EQ(mix->programs()[0].spec.name, "mcf");
    EXPECT_EQ(mix->programs()[1].spec.name, "cg.B");
    EXPECT_EQ(mix->programs()[2].spec.name, "povray");
    EXPECT_DOUBLE_EQ(mix->programs()[0].startOffset, 0.0);
    EXPECT_DOUBLE_EQ(mix->programs()[1].startOffset, 1e-3);
    EXPECT_DOUBLE_EQ(mix->programs()[2].startOffset, 2e-3);
}

TEST(WorkloadRegistry, MixOptionsComposeInAnyOrder)
{
    for (const char *spec :
         {"mix:mcf+cg.B@stagger=1e-3@scale=1.5",
          "mix:mcf+cg.B@scale=1.5@stagger=1e-3"}) {
        auto source = makeWorkloadSource(spec);
        ASSERT_NE(source, nullptr) << spec;
        auto *mix = dynamic_cast<MixSource *>(source.get());
        ASSERT_NE(mix, nullptr) << spec;
        ASSERT_EQ(mix->programs().size(), 2u) << spec;
        EXPECT_DOUBLE_EQ(mix->programs()[1].startOffset, 1e-3) << spec;
        // scale multiplies each program's intensity relative to the
        // registry spec.
        const WorkloadSpec &base = findWorkload("mcf");
        EXPECT_DOUBLE_EQ(mix->programs()[0].spec.thermalScale,
                         base.thermalScale * 1.5)
            << spec;
    }
}

TEST(WorkloadRegistry, MixGrammarEdgeCasesAreRejected)
{
    // Each of these mis-parsed (or parsed silently wrong) under the
    // old rfind('@') single-option parser.
    const std::vector<std::string> bad = {
        "mix:mcf+cg.B@",                      // '@' at end
        "mix:mcf+cg.B@stagger=1e-3@",         // dangling second '@'
        "mix:mcf+cg.B@@stagger=1e-3",         // empty option
        "mix:mcf+cg.B@stagger=1e-3@stagger=2e-3", // duplicate
        "mix:mcf+cg.B@scale=1.5@scale=2",     // duplicate
        "mix:mcf+cg.B@stagger",               // no value
        "mix:mcf+cg.B@stagger=",              // empty value
        "mix:mcf+cg.B@stagger=-1e-3",         // negative
        "mix:mcf+cg.B@scale=0",               // zero multiplier
        "mix:mcf+cg.B@turbo=1",               // unknown key
        "mix:mcf+",                           // '+' at end
        "mix:+mcf",                           // leading '+'
        "mix:mcf++cg.B",                      // empty middle program
    };
    for (const auto &spec : bad) {
        std::string error;
        EXPECT_EQ(tryMakeWorkloadSource(spec, &error), nullptr)
            << "'" << spec << "' should not parse";
        EXPECT_FALSE(error.empty()) << "'" << spec << "'";
    }
}

TEST(WorkloadRegistry, SplitSpecListPreservesEmptyEntries)
{
    using V = std::vector<std::string>;
    EXPECT_EQ(splitWorkloadSpecList("bzip2"), V({"bzip2"}));
    EXPECT_EQ(splitWorkloadSpecList("a,mix:b+c@stagger=1e-3,d"),
              V({"a", "mix:b+c@stagger=1e-3", "d"}));
    // Empty entries stay visible so the fleet can report the typo
    // instead of silently renumbering dies.
    EXPECT_EQ(splitWorkloadSpecList(""), V({""}));
    EXPECT_EQ(splitWorkloadSpecList("a,,b"), V({"a", "", "b"}));
    EXPECT_EQ(splitWorkloadSpecList("a,"), V({"a", ""}));
}

// --- Wrapped specs resolve by name -----------------------------------

TEST(WorkloadSource, WrappedSpecNameResolvesToSameRun)
{
    // A wrapped suite program is named by its bare program name, so a
    // trace header or manifest that records the name can resolve it
    // through the registry again and reproduce the run bit for bit.
    for (const WorkloadSpec &spec : spec2006Suite()) {
        const auto wrapped = makeSyntheticSource(spec);
        std::string error;
        const auto resolved =
            tryMakeWorkloadSource(wrapped->name(), &error);
        ASSERT_NE(resolved, nullptr) << wrapped->name() << ": " << error;

        SimulationPipeline a(fastPipelineConfig());
        SimulationPipeline b(fastPipelineConfig());
        a.runConstantFrequency(*wrapped, 42, 4.5, 48);
        b.runConstantFrequency(*resolved, 42, 4.5, 48);
        EXPECT_EQ(a.runHash(), b.runHash()) << spec.name;
    }
}

// --- mix: staggered starts ---------------------------------------------

TEST(WorkloadSource, MixStaggerGatesLateCores)
{
    auto source = makeWorkloadSource("mix:mcf+gromacs@stagger=0.4e-3");
    source->reset(11);
    // Core 1 idles until its 0.4 ms offset has elapsed.
    EXPECT_TRUE(source->stimulus(0).active);
    EXPECT_FALSE(source->stimulus(1).active);

    Seconds t = 0.0;
    while (t + 1e-12 < 0.4e-3) {
        source->advance(kTelemetryStep);
        t += kTelemetryStep;
    }
    EXPECT_TRUE(source->stimulus(0).active);
    EXPECT_TRUE(source->stimulus(1).active);
}

TEST(WorkloadSource, MixStaggerActivatesExactlyPastAMillionSteps)
{
    // A start offset exactly (2^20 + 1) steps out must gate the core
    // for exactly that many advances. The old `elapsed_ += dt`
    // accumulator drifts by ULPs over a run this long and could flip
    // the activation a step early or late; step counting cannot.
    constexpr int64_t kStartStep = (int64_t{1} << 20) + 1; // 1048577
    std::vector<MixProgram> programs;
    programs.push_back({findWorkload("mcf"), 0.0});
    programs.push_back(
        {findWorkload("gromacs"),
         static_cast<Seconds>(kStartStep) * kTelemetryStep});
    MixSource source("mix:driftcheck", std::move(programs));
    source.reset(3);

    EXPECT_TRUE(source.stimulus(0).active);
    for (int64_t step = 1; step < kStartStep; ++step) {
        source.advance(kTelemetryStep);
        if (step >= kStartStep - 2) {
            ASSERT_FALSE(source.stimulus(1).active)
                << "activated early, at step " << step;
        }
    }
    source.advance(kTelemetryStep); // step kStartStep
    EXPECT_TRUE(source.stimulus(1).active) << "activated late";
    EXPECT_TRUE(source.stimulus(0).active);
}

TEST(WorkloadSource, MixRunsEndToEndWithPerCoreTelemetry)
{
    SimulationPipeline pipeline(fastPipelineConfig());
    auto source = makeWorkloadSource("mix:mcf+cg.B@stagger=0.8e-3");
    const RunResult r =
        pipeline.runConstantFrequency(*source, 2023, 4.25, 36);
    ASSERT_EQ(r.steps.size(), 36u);
    EXPECT_GT(r.peakSeverity(), 0.0);
    EXPECT_NE(pipeline.runHash(), 0u);
}

// --- NAS calibration ----------------------------------------------------

TEST(WorkloadNas, CalibrationReproducesCpaInstructionRates)
{
    // Each NAS phase program is calibrated so its dwell-weighted mean
    // instruction rate at the reference clock reproduces the CPA
    // measurement. The calibration solves the phase's *effective* CPI
    // (base + miss-event penalties, arch/core_model.hh), so evaluate
    // the same quantity here and require the dwell-weighted rate to
    // land within 15% of the published target.
    const IntervalCore core{CoreParams{}};
    for (const WorkloadSpec &wl : nasSuite()) {
        double dwell_sum = 0.0;
        double instr_sum = 0.0;
        for (const WorkloadPhase &ph : wl.phases) {
            const double cpi =
                core.effectiveCpi(ph.params, kNasReferenceFrequency);
            dwell_sum += ph.meanDuration;
            instr_sum += ph.meanDuration * kNasReferenceFrequency * 1e9 /
                         cpi;
        }
        const double rate = instr_sum / dwell_sum;
        const double target = nasTargetInstructionRate(wl.name);
        ASSERT_GT(target, 0.0) << wl.name;
        EXPECT_NEAR(rate / target, 1.0, 0.15) << wl.name;
    }
}

TEST(WorkloadNas, SuiteRunsThroughPipeline)
{
    SimulationPipeline pipeline(fastPipelineConfig());
    auto source = makeWorkloadSource("synthetic:nas/is.D");
    const RunResult r =
        pipeline.runConstantFrequency(*source, 5, 4.5, 24);
    EXPECT_EQ(r.steps.size(), 24u);
    EXPECT_GT(r.peakSeverity(), 0.0);
}

// --- Adversarial scenarios ----------------------------------------------

TEST(WorkloadAdversarial, EveryScenarioRunsEndToEnd)
{
    for (const std::string &scenario : adversarialScenarios()) {
        SimulationPipeline pipeline(fastPipelineConfig());
        auto source = makeWorkloadSource("adversarial:" + scenario);
        ASSERT_NE(source, nullptr) << scenario;
        const RunResult r =
            pipeline.runConstantFrequency(*source, 2023, 4.5, 36);
        ASSERT_EQ(r.steps.size(), 36u) << scenario;
        EXPECT_GT(r.peakSeverity(), 0.0) << scenario;
        for (const StepRecord &s : r.steps)
            ASSERT_TRUE(std::isfinite(s.totalPower)) << scenario;
    }
}

TEST(WorkloadAdversarial, PowerVirusOutheatsSoloWorkload)
{
    // The 4-core synchronized power virus must run hotter than any
    // single-core program — otherwise it is not adversarial.
    SimulationPipeline a(fastPipelineConfig());
    auto virus = makeWorkloadSource("adversarial:powervirus");
    const RunResult rv = a.runConstantFrequency(*virus, 2023, 4.5, 48);

    SimulationPipeline b(fastPipelineConfig());
    const RunResult rs = b.runConstantFrequency(
        *boreas::test::program("povray"), 2023, 4.5, 48);

    EXPECT_GT(rv.peakSeverity(), rs.peakSeverity());
}

TEST(WorkloadAdversarial, CoreHopMigratesTheActiveCore)
{
    auto source = makeWorkloadSource("adversarial:corehop");
    source->reset(1);
    ASSERT_EQ(source->numCores(), 4);

    std::vector<int> seen;
    for (int step = 0; step < 200; ++step) {
        int active = -1;
        for (int c = 0; c < source->numCores(); ++c) {
            if (source->stimulus(c).active) {
                ASSERT_EQ(active, -1) << "two cores hot at step " << step;
                active = c;
            }
        }
        ASSERT_NE(active, -1) << "no core hot at step " << step;
        if (seen.empty() || seen.back() != active)
            seen.push_back(active);
        source->advance(kTelemetryStep);
    }
    // 200 steps * 80us = 16ms; with a 3ms hop period the hotspot must
    // have visited several cores in round-robin order.
    ASSERT_GE(seen.size(), 4u);
    for (size_t i = 1; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], (seen[i - 1] + 1) % 4);
}

// --- Clone / determinism ------------------------------------------------

TEST(WorkloadSource, ClonesReplayIdentically)
{
    for (const char *spec :
         {"mcf", "synthetic:nas/cg.B", "mix:mcf+cg.B@stagger=0.5e-3",
          "adversarial:corehop", "adversarial:ambientsweep"}) {
        auto original = makeWorkloadSource(spec);
        auto copy = original->clone();

        SimulationPipeline a(fastPipelineConfig());
        SimulationPipeline b(fastPipelineConfig());
        a.runConstantFrequency(*original, 99, 4.25, 24);
        b.runConstantFrequency(*copy, 99, 4.25, 24);
        EXPECT_EQ(a.runHash(), b.runHash()) << spec;
    }
}
