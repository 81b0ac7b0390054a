#include "boreas/trainer.hh"

#include <istream>
#include <ostream>

#include <algorithm>
#include <numeric>

#include "common/iofmt.hh"
#include "common/logging.hh"
#include "ml/feature_schema.hh"

namespace boreas
{

TrainedBoreas
trainBoreas(SimulationPipeline &pipeline,
            const std::vector<const WorkloadSource *> &train_sources,
            const TrainerConfig &config)
{
    TrainedBoreas out;

    BuiltData built = buildTrainingData(pipeline, train_sources,
                                        config.data);
    out.fullTrainData = std::move(built.severity);
    boreas_assert(out.fullTrainData.numRows() > 0,
                  "empty training dataset");

    // Deployed model on the selected columns.
    out.featureNames = deployedFeatureNames();
    out.trainData = out.fullTrainData.selectFeatures(
        featureIndicesOf(out.featureNames));
    out.model.train(out.trainData, config.gbt);

    // Cochran-Reda baseline on the same trajectories.
    Rng rng(config.data.baseSeed ^ 0xCDAC10ULL);
    out.phaseModel.train(built.phaseSamples, /*num_phases=*/8,
                         /*num_components=*/5,
                         pipeline.vfTable().numPoints(), rng);
    return out;
}

std::vector<std::string>
selectTopFeatures(const GBTRegressor &full_model, size_t k)
{
    const auto &schema = fullFeatureSchema();
    boreas_assert(full_model.numFeatures() == schema.size(),
                  "model is not a full-schema model");
    const std::vector<double> gains = full_model.featureImportance();

    std::vector<size_t> order(gains.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return gains[a] > gains[b];
    });
    k = std::min(k, order.size());

    // Return ascending by importance, matching Table IV's presentation.
    std::vector<std::string> names;
    for (size_t i = k; i-- > 0;)
        names.push_back(schema[order[i]]);
    return names;
}

double
evaluateMse(const GBTRegressor &model,
            const std::vector<std::string> &feature_names,
            const Dataset &full_data)
{
    const Dataset view = full_data.selectFeatures(
        featureIndicesOf(feature_names));
    return model.mse(view);
}

void
saveTrainedBoreas(const TrainedBoreas &trained, std::ostream &os)
{
    boreas_assert(trained.model.trained(),
                  "cannot save an untrained bundle");
    ScopedStreamPrecision precision(os);
    os << "boreas-bundle 1\n";
    os << trained.featureNames.size() << "\n";
    for (const auto &name : trained.featureNames)
        os << name << "\n";
    trained.model.save(os);
    os << (trained.phaseModel.trained() ? 1 : 0) << "\n";
    if (trained.phaseModel.trained())
        trained.phaseModel.save(os);
}

TrainedBoreas
loadTrainedBoreas(std::istream &is)
{
    std::string magic;
    int version = 0;
    is >> magic >> version;
    boreas_assert(magic == "boreas-bundle" && version == 1,
                  "bad bundle header");
    TrainedBoreas out;
    size_t n = 0;
    is >> n;
    boreas_assert(n > 0 && n <= kNumFullFeatures,
                  "bad bundle feature count %zu", n);
    out.featureNames.resize(n);
    for (auto &name : out.featureNames)
        is >> name;
    // A bundle whose feature names drifted from the counter schema
    // would silently feed the model the wrong telemetry columns; fail
    // loudly at load time instead.
    const auto &schema = fullFeatureSchema();
    for (const auto &name : out.featureNames) {
        const bool known = std::find(schema.begin(), schema.end(),
                                     name) != schema.end();
        boreas_assert(known,
                      "bundle feature '%s' is not in the telemetry "
                      "schema (stale or corrupt bundle?)",
                      name.c_str());
    }
    out.model.load(is);
    boreas_assert(out.model.numFeatures() == n,
                  "bundle model/feature mismatch");
    int has_phase = 0;
    is >> has_phase;
    if (has_phase)
        out.phaseModel.load(is);
    return out;
}

} // namespace boreas
