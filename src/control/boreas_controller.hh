/**
 * @file
 * The Boreas ML frequency controller (Secs. IV and V-A).
 *
 * Every decision period the controller assembles the feature vector
 * (telemetry counters + delayed sensor reading + candidate frequency),
 * asks the GBT for the predicted max severity of the next period, and:
 *
 *   - if the prediction at the current frequency exceeds the threshold,
 *     steps down 250 MHz;
 *   - otherwise, if the prediction at +250 MHz is still under the
 *     threshold, steps up;
 *   - otherwise holds.
 *
 * The threshold is 1.0 minus the guardband: ML00/ML05/ML10 use
 * guardbands of 0%, 5% and 10% (thresholds 1.0, 0.95, 0.9; Sec. V-C).
 */

#pragma once

#include <string>
#include <vector>

#include "control/controller.hh"
#include "ml/feature_schema.hh"
#include "ml/gbt.hh"
#include "ml/gbt_flat.hh"

namespace boreas
{

/** The ML severity-prediction DVFS policy. */
class BoreasController : public FrequencyController
{
  public:
    /**
     * @param name display name ("ML00", "ML05", "ML10")
     * @param model trained severity regressor (compiled into the
     *        controller's flat engine; need not outlive it)
     * @param feature_names model input columns (full-schema names)
     * @param guardband fraction subtracted from the 1.0 threshold
     * @param sensor_index sensor providing temperature_sensor_data
     */
    BoreasController(std::string name, const GBTRegressor *model,
                     const std::vector<std::string> &feature_names,
                     double guardband, int sensor_index);

    const char *name() const override { return name_.c_str(); }

    GHz decide(const DecisionContext &ctx) override;

    /** Predicted severity for a candidate frequency in a context. */
    double predictSeverity(const DecisionContext &ctx,
                           GHz candidate) const;

    double threshold() const { return threshold_; }

  private:
    std::string name_;
    /** Flat engine compiled from the model at construction: the
     *  serving path every per-period severity query goes through
     *  (bit-identical to GBTRegressor::predict; DESIGN.md §12). */
    FlatGBT flat_;
    std::vector<size_t> featureIndices_;
    double threshold_;
    int sensorIndex_;
};

} // namespace boreas
