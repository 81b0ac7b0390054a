/**
 * @file
 * The benchmark's shared setup: the pipeline configuration and the one
 * fixed, reduced ML05 training recipe both workloads serve from.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "control/boreas_controller.hh"
#include "control/phase_thermal.hh"
#include "ml/gbt.hh"
#include "spans.hh"

namespace perfbench
{

/** Spectral thermal solver, otherwise the pipeline defaults. */
boreas::PipelineConfig pipelineConfig();

/** Registry spec string of a SPEC CPU2006 workload. */
std::string specSource(const std::string &name);

/** Six Table III training workloads spanning the oracle-frequency range. */
const std::vector<std::string> &trainingWorkloads();

/** The seven held-out Table III workloads (fig7 protocol). */
const std::vector<std::string> &heldOutWorkloads();

/** A trained ML05 controller and everything it references. */
struct Trained
{
    boreas::GBTRegressor fullModel;
    boreas::GBTRegressor model; ///< deployed columns
    std::vector<std::string> featureNames;
    boreas::PhaseThermalModel phaseModel;
    double fitMse = 0.0;        ///< training-set MSE of `model`
    long datasetRows = 0;

    /** ML05: the Boreas controller with a 5% guardband. */
    std::unique_ptr<boreas::BoreasController> ml05() const;
};

/**
 * Train with the fixed recipe: the six training workloads at four VF
 * points (3.75, 4.25, 4.5, 5.0 GHz), one constant-frequency and one
 * random-walk trace each, no intensity augments, Table II GBT
 * parameters. Deterministic: the dataset seed is fixed, so every setup
 * fits the same model. With a log, each phase is one span:
 * boreas.dataset (buildTrainingData), ml.fit (both GBT fits) and
 * control.phase_fit (PhaseThermalModel).
 */
std::unique_ptr<Trained> trainRecipe(boreas::SimulationPipeline &pipeline,
                                     SpanLog *log);

} // namespace perfbench
