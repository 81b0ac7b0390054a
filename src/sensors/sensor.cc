#include "sensors/sensor.hh"

#include <algorithm>

#include "common/logging.hh"

namespace boreas
{

ThermalSensor::ThermalSensor(std::string name, Point location,
                             const SensorParams &params)
    : name_(std::move(name)), location_(location), params_(params)
{
    boreas_assert(params_.delaySteps >= 0, "negative sensor delay");
    // A fresh sensor starts with a full ambient-prefilled history, the
    // same state reset() establishes. Leaving the history logically
    // empty would let reading() clamp its look-back to the few samples
    // taken so far and report temperatures *newer* than delaySteps
    // during warm-up — an under-delay the controller never sees on
    // silicon, where the sensor chain latency exists from power-on.
    history_.assign(static_cast<size_t>(params_.delaySteps) + 1, kAmbient);
}

void
ThermalSensor::sample(const ThermalGrid &grid, Rng &rng)
{
    lastTrue_ = grid.temperatureAt(location_);

    Celsius value = lastTrue_;
    if (params_.noiseSigma > 0.0)
        value += rng.normal(0.0, params_.noiseSigma);

    history_[head_] = value;
    head_ = (head_ + 1) % history_.size();
}

Celsius
ThermalSensor::reading() const
{
    // The history holds delaySteps + 1 samples and is always full, so
    // the sample delaySteps older than the newest (just behind head_)
    // is the oldest one, the next to be overwritten: head_ itself.
    return history_[head_];
}

void
ThermalSensor::reset(Celsius temp)
{
    std::fill(history_.begin(), history_.end(), temp);
    head_ = 0;
    lastTrue_ = temp;
}

int
SensorBank::addSensor(const std::string &name, const Point &location,
                      const SensorParams &params)
{
    sensors_.emplace_back(name, location, params);
    return static_cast<int>(sensors_.size()) - 1;
}

void
SensorBank::sampleAll(const ThermalGrid &grid, Seconds, Rng &rng)
{
    for (auto &s : sensors_)
        s.sample(grid, rng);
}

void
SensorBank::resetAll(Celsius temp)
{
    for (auto &s : sensors_)
        s.reset(temp);
}

std::vector<Celsius>
SensorBank::readings() const
{
    std::vector<Celsius> out;
    out.reserve(sensors_.size());
    for (const auto &s : sensors_)
        out.push_back(s.reading());
    return out;
}

} // namespace boreas
