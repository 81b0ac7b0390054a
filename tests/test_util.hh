/**
 * @file
 * Shared helpers for the Boreas test suite: a reduced-cost pipeline
 * configuration (coarser thermal grid) and a tiny trainer configuration
 * so integration tests run in seconds, plus the one-program source
 * wrapper the run APIs take and the model digest the golden tests
 * pin. Physics-calibration assertions
 * (exact severity values) only hold at the default 64x64 grid and are
 * confined to the tests that use defaults.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "boreas/pipeline.hh"
#include "boreas/trainer.hh"
#include "common/hash.hh"
#include "ml/gbt.hh"
#include "workload/registry.hh"
#include "workload/spec2006.hh"

namespace boreas::test
{

/** Pipeline config with a 32x32 grid: ~4x faster, same qualitative
 *  behaviour. */
inline PipelineConfig
fastPipelineConfig()
{
    PipelineConfig cfg;
    cfg.thermal.nx = 32;
    cfg.thermal.ny = 32;
    return cfg;
}

/** Trainer config small enough for unit tests (seconds, not minutes). */
inline TrainerConfig
tinyTrainerConfig()
{
    TrainerConfig cfg;
    cfg.data.frequencies = {3.5, 3.75, 4.0, 4.25, 4.5, 4.75, 5.0};
    cfg.data.walkSegments = 2;
    cfg.data.traceSteps = 96;
    cfg.gbt.nEstimators = 100;
    return cfg;
}

/** One spec2006 program wrapped as a source named by its bare name. */
inline std::unique_ptr<WorkloadSource>
program(const std::string &name)
{
    return makeSyntheticSource(findWorkload(name));
}

/** FNV-1a over a model's save() text: every split, threshold, leaf
 *  and gain at full round-trip precision. */
inline uint64_t
modelDigest(const GBTRegressor &model)
{
    std::stringstream buf;
    model.save(buf);
    const std::string text = buf.str();
    Fnv1a h;
    h.addBytes(text.data(), text.size());
    return h.digest();
}

} // namespace boreas::test
