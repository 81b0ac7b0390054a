/**
 * @file
 * The determinism audit (DESIGN.md §7): compares the pipeline's
 * per-step state hashes — the bitwise fingerprint of everything a
 * telemetry step observes — between 1-thread and 8-thread executions
 * of the parallel fan-outs, and does the same for parallel GBT
 * training. test_parallel.cc compares selected fields; the hash
 * covers the full state (all 76 counters, the whole silicon
 * temperature field, severity, sensors), so any nondeterminism that
 * slips into a future change trips it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "boreas/dataset_builder.hh"
#include "boreas/pipeline.hh"
#include "common/hash.hh"
#include "common/parallel.hh"
#include "ml/feature_schema.hh"
#include "ml/gbt.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "test_util.hh"
#include "workload/spec2006.hh"

using namespace boreas;
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

/** Per-step hash streams of a fanned-out 2x2 sweep, plus run hashes. */
struct SweepHashes
{
    std::vector<std::vector<uint64_t>> stepHashes;
    std::vector<uint64_t> runHashes;
};

SweepHashes
sweepHashes()
{
    const SourceSet wls = wrapSpecs({
        &findWorkload("bzip2"), &findWorkload("gromacs")});
    const std::vector<GHz> freqs{3.75, 4.75};
    constexpr int kSteps = 48;

    SweepHashes out;
    out.stepHashes.resize(wls.sources.size() * freqs.size());
    out.runHashes.resize(wls.sources.size() * freqs.size());
    parallelForEach(
        0, static_cast<int64_t>(out.runHashes.size()), 1, [&](int64_t i) {
            SimulationPipeline pipeline(fastPipelineConfig());
            const size_t wi = static_cast<size_t>(i) / freqs.size();
            const size_t fi = static_cast<size_t>(i) % freqs.size();
            const auto src = wls.sources[wi]->clone();
            const RunResult run = pipeline.runConstantFrequency(
                *src, 11 + src->groupId(), freqs[fi], kSteps);
            for (const StepRecord &s : run.steps)
                out.stepHashes[i].push_back(s.stateHash);
            out.runHashes[i] = pipeline.runHash();
        });
    return out;
}

/** Bitwise fingerprint of a trained GBT model. */
uint64_t
modelHash(const GBTRegressor &model)
{
    Fnv1a h;
    h.add(model.basePrediction());
    h.add(static_cast<uint64_t>(model.numTrees()));
    for (const GBTTree &tree : model.trees()) {
        for (const GBTNode &node : tree.nodes) {
            h.add(node.feature);
            h.add(node.threshold);
            h.add(node.left);
            h.add(node.right);
            h.add(node.value);
            h.add(node.gain);
        }
    }
    return h.digest();
}

Dataset
smallTrainingSet()
{
    DatasetConfig cfg;
    cfg.frequencies = {3.75, 4.5};
    cfg.walkSegments = 2;
    cfg.traceSteps = 48;
    const SourceSet wls = wrapSpecs({
        &findWorkload("povray"), &findWorkload("mcf")});
    SimulationPipeline pipeline(fastPipelineConfig());
    return buildTrainingData(pipeline, wls.sources, cfg).severity;
}

} // namespace

TEST(DeterminismAudit, StepHashesIdenticalAt1And8Threads)
{
    GlobalPoolGuard guard;

    ThreadPool::resetGlobal(1);
    const SweepHashes serial = sweepHashes();

    ThreadPool::resetGlobal(8);
    const SweepHashes threaded = sweepHashes();

    ASSERT_EQ(serial.stepHashes.size(), threaded.stepHashes.size());
    for (size_t r = 0; r < serial.stepHashes.size(); ++r) {
        ASSERT_EQ(serial.stepHashes[r].size(),
                  threaded.stepHashes[r].size());
        for (size_t s = 0; s < serial.stepHashes[r].size(); ++s) {
            ASSERT_EQ(serial.stepHashes[r][s], threaded.stepHashes[r][s])
                << "run " << r << " step " << s
                << ": pipeline state diverged between 1 and 8 threads";
        }
        EXPECT_EQ(serial.runHashes[r], threaded.runHashes[r]);
    }
}

TEST(DeterminismAudit, StepHashDiscriminatesSeeds)
{
    // A hash that never changes would vacuously pass the audit; make
    // sure different seeds (and different steps) actually differ.
    SimulationPipeline pipeline(fastPipelineConfig());
    const auto wl = boreas::test::program("bzip2");

    const RunResult a = pipeline.runConstantFrequency(*wl, 1, 4.5, 16);
    const uint64_t hash_a = pipeline.runHash();
    const RunResult b = pipeline.runConstantFrequency(*wl, 2, 4.5, 16);
    const uint64_t hash_b = pipeline.runHash();

    EXPECT_NE(hash_a, hash_b);
    EXPECT_NE(a.steps.front().stateHash, a.steps.back().stateHash);
    for (const StepRecord &s : a.steps)
        EXPECT_NE(s.stateHash, 0u);
}

TEST(DeterminismAudit, RunHashReproducesForSameSeed)
{
    SimulationPipeline pipeline(fastPipelineConfig());
    const auto wl = boreas::test::program("sjeng");

    pipeline.runConstantFrequency(*wl, 5, 4.25, 16);
    const uint64_t first = pipeline.runHash();
    pipeline.runConstantFrequency(*wl, 5, 4.25, 16);
    const uint64_t second = pipeline.runHash();

    EXPECT_EQ(first, second);
}

TEST(DeterminismAudit, RunHashIdenticalWithObsOnAndOff)
{
    // The observability layer (src/obs) reads simulator state but must
    // never feed it: enabling metrics + tracing cannot move a single
    // bit of any state hash, at any thread count.
    GlobalPoolGuard guard;
    struct ObsOffGuard
    {
        ~ObsOffGuard()
        {
            obs::setEnabled(false);
            obs::MetricsRegistry::global().reset();
            obs::TraceBuffer::global().clear();
        }
    } obs_guard;

    for (int threads : {1, 8}) {
        ThreadPool::resetGlobal(threads);

        obs::setEnabled(false);
        const SweepHashes off = sweepHashes();

        obs::setEnabled(true);
        const SweepHashes on = sweepHashes();
        obs::setEnabled(false);

        ASSERT_EQ(off.runHashes, on.runHashes)
            << "observability perturbed the run hash at " << threads
            << " thread(s)";
        ASSERT_EQ(off.stepHashes, on.stepHashes)
            << "observability perturbed a step hash at " << threads
            << " thread(s)";
    }
}

TEST(DeterminismAudit, ParallelGBTTrainingIsBitwiseDeterministic)
{
    GlobalPoolGuard guard;

    // Build the dataset once (its own determinism is covered by
    // test_parallel.cc); audit the feature-parallel trainer.
    ThreadPool::resetGlobal(1);
    const Dataset data = smallTrainingSet();

    GBTParams params;
    params.nEstimators = 24;
    params.maxDepth = 3;

    GBTRegressor serial;
    serial.train(data, params);
    const uint64_t serial_hash = modelHash(serial);

    ThreadPool::resetGlobal(8);
    GBTRegressor threaded;
    threaded.train(data, params);
    const uint64_t threaded_hash = modelHash(threaded);

    EXPECT_EQ(serial_hash, threaded_hash)
        << "GBT model diverged between 1- and 8-thread training";

    // The deployed 21-column view splits into histogram blocks
    // unevenly; every lane count must still grow the same model.
    const Dataset deployed = data.selectFeatures(
        featureIndicesOf(deployedFeatureNames()));
    ASSERT_EQ(deployed.numFeatures(), 21u);
    uint64_t deployed_hash = 0;
    for (const int threads : {1, 4, 8}) {
        ThreadPool::resetGlobal(threads);
        GBTRegressor model;
        model.train(deployed, params);
        if (threads == 1)
            deployed_hash = modelHash(model);
        EXPECT_EQ(modelHash(model), deployed_hash)
            << "deployed-view GBT model diverged at " << threads
            << " threads";
    }

    // And the models must predict identically, bit for bit.
    const auto pa = serial.predictAll(data);
    ThreadPool::resetGlobal(1);
    const auto pb = threaded.predictAll(data);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        ASSERT_EQ(pa[i], pb[i]);
}
