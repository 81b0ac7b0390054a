/**
 * @file
 * The Boreas training recipe (Fig. 3, Secs. IV-A/IV-B): generate the
 * telemetry dataset from the training workloads, fit the full-schema GBT
 * for the feature-importance study, and fit the deployed model on the
 * selected feature subset.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "boreas/dataset_builder.hh"
#include "boreas/pipeline.hh"
#include "control/phase_thermal.hh"
#include "ml/cv.hh"
#include "ml/gbt.hh"

namespace boreas
{

/** Configuration of one training pass. */
struct TrainerConfig
{
    DatasetConfig data{};
    GBTParams gbt{};          ///< defaults = Table II
    /** Feature names of the deployed model; empty = Table IV top-20 +
     *  frequency. */
    std::vector<std::string> deployedFeatures;
};

/** Everything the evaluation needs from one training pass. */
struct TrainedBoreas
{
    /** Deployed model (selected features). */
    GBTRegressor model;
    /** Column names of the deployed model, in order. */
    std::vector<std::string> featureNames;
    /** Model over all 78 attributes (feature-importance study). */
    GBTRegressor fullModel;
    /** The raw training data (full schema). */
    Dataset fullTrainData;
    /** Training data restricted to the deployed columns. */
    Dataset trainData;
    /** Cochran-Reda baseline model trained on the same trajectories. */
    PhaseThermalModel phaseModel;
};

/** Run the full training pass on the given (training) workloads. */
TrainedBoreas trainBoreas(SimulationPipeline &pipeline,
                          const std::vector<const WorkloadSource *> &
                              train_sources,
                          const TrainerConfig &config = {});

/**
 * The feature-selection procedure of Sec. IV-B: rank the full model's
 * features by normalized gain and return the names of the top k
 * (ascending importance, like Table IV).
 */
std::vector<std::string> selectTopFeatures(const GBTRegressor &full_model,
                                           size_t k);

/** Evaluate a dataset restricted to the model's columns. */
double evaluateMse(const GBTRegressor &model,
                   const std::vector<std::string> &feature_names,
                   const Dataset &full_data);

/**
 * Persist the deployable parts of a training pass: the deployed GBT,
 * its feature names, and the Cochran-Reda baseline model. Datasets and
 * the 78-feature study model are not persisted (regenerate them).
 */
void saveTrainedBoreas(const TrainedBoreas &trained, std::ostream &os);

/**
 * Restore a persisted training pass. The returned bundle is ready to
 * drive BoreasController / PhaseThermalController; its datasets are
 * empty and fullModel is untrained.
 */
TrainedBoreas loadTrainedBoreas(std::istream &is);

} // namespace boreas
