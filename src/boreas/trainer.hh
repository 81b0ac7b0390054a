/**
 * @file
 * The Boreas training recipe (Fig. 3, Secs. IV-A/IV-B): generate the
 * telemetry dataset from the training workloads, fit the deployed model
 * on the selected feature subset, and fit the Cochran-Reda baseline on
 * the same trajectories.
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
};

/**
 * What the controllers serve from one training pass, plus the datasets
 * it was fitted on. The model over all 78 attributes is not part of
 * it: only the Sec. IV-B importance study reads one, and fits it from
 * fullTrainData.
 */
struct TrainedBoreas
{
    /** Deployed model (selected features). */
    GBTRegressor model;
    /** Column names of the deployed model, in order; trainBoreas
     *  fits deployedFeatureNames() (Table IV top 20 + frequency). */
    std::vector<std::string> featureNames;
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
 * Persist a training pass: the deployed GBT, its feature names, and the
 * Cochran-Reda baseline model. The datasets are not persisted
 * (regenerate them).
 */
void saveTrainedBoreas(const TrainedBoreas &trained, std::ostream &os);

/**
 * Restore a persisted training pass. The returned bundle drives
 * BoreasController / PhaseThermalController exactly as the trained one
 * does; it differs from it only in its datasets, which are empty.
 */
TrainedBoreas loadTrainedBoreas(std::istream &is);

} // namespace boreas
