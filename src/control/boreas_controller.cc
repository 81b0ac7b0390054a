#include "control/boreas_controller.hh"

#include "common/logging.hh"

namespace boreas
{

namespace
{

const GBTRegressor &
trainedModel(const GBTRegressor *model)
{
    boreas_assert(model != nullptr && model->trained(),
                  "BoreasController needs a trained model");
    return *model;
}

} // namespace

BoreasController::BoreasController(
    std::string name, const GBTRegressor *model,
    const std::vector<std::string> &feature_names, double guardband,
    int sensor_index)
    : name_(std::move(name)), flat_(trainedModel(model)),
      featureIndices_(featureIndicesOf(feature_names)),
      threshold_(1.0 - guardband), sensorIndex_(sensor_index)
{
    boreas_assert(flat_.numFeatures() == featureIndices_.size(),
                  "model expects %zu features, got %zu",
                  flat_.numFeatures(), featureIndices_.size());
    boreas_assert(guardband >= 0.0 && guardband < 1.0,
                  "bad guardband %f", guardband);
}

double
BoreasController::predictSeverity(const DecisionContext &ctx,
                                  GHz candidate) const
{
    boreas_assert(ctx.counters != nullptr, "missing telemetry");
    boreas_assert(static_cast<size_t>(sensorIndex_) <
                  ctx.sensorReadings.size(),
                  "sensor %d not in bank", sensorIndex_);
    const std::vector<double> full = assembleFeatures(
        *ctx.counters, ctx.sensorReadings[sensorIndex_], candidate);
    std::vector<double> x;
    x.reserve(featureIndices_.size());
    for (size_t idx : featureIndices_)
        x.push_back(full[idx]);
    return flat_.predictOne(x.data());
}

GHz
BoreasController::decide(const DecisionContext &ctx)
{
    boreas_assert(ctx.vf != nullptr, "missing VF table");
    const VFTable &vf = *ctx.vf;

    if (predictSeverity(ctx, ctx.currentFreq) > threshold_)
        return vf.stepDown(ctx.currentFreq);

    const GHz up = vf.stepUp(ctx.currentFreq);
    if (up > ctx.currentFreq &&
        predictSeverity(ctx, up) <= threshold_) {
        return up;
    }
    return ctx.currentFreq;
}

} // namespace boreas
