/**
 * @file
 * Thermal sensor models.
 *
 * Real on-die sensors report a delayed, filtered view of silicon
 * temperature; the paper shows this delay (180-960 us) is large relative
 * to advanced-hotspot formation and is a core reason reactive DVFS needs
 * big guardbands. A sensor here samples the thermal grid every telemetry
 * step and exposes a reading delayed by a configurable number of steps,
 * optionally with Gaussian read noise. The delay stands for the whole
 * sensor chain's latency, thermal mass included: no sensor here
 * low-pass filters its samples.
 */

#pragma once

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "floorplan/geometry.hh"
#include "thermal/thermal_grid.hh"

namespace boreas
{

/** Non-ideality knobs of a sensor. */
struct SensorParams
{
    /** Readout delay in telemetry steps (12 steps = 960 us default). */
    int delaySteps = 12;
    /** Gaussian read-noise sigma in C; 0 disables. */
    Celsius noiseSigma = 0.0;
};

/** One point thermal sensor. */
class ThermalSensor
{
  public:
    ThermalSensor(std::string name, Point location,
                  const SensorParams &params = {});

    const std::string &name() const { return name_; }
    const Point &location() const { return location_; }
    const SensorParams &params() const { return params_; }

    /** Sample the grid (call once per telemetry step). */
    void sample(const ThermalGrid &grid, Rng &rng);

    /** Current delayed (and noisy) reading. */
    Celsius reading() const;

    /** Instantaneous true temperature at the sensor site (no delay). */
    Celsius lastTrueTemp() const { return lastTrue_; }

    /** Reset history to the given temperature. */
    void reset(Celsius temp);

  private:
    std::string name_;
    Point location_;
    SensorParams params_;

    std::vector<Celsius> history_; ///< ring buffer of samples
    size_t head_ = 0;              ///< next write position
    Celsius lastTrue_ = kAmbient;
};

/** A set of sensors sampled together. */
class SensorBank
{
  public:
    SensorBank() = default;

    /** Add a sensor; returns its index. */
    int addSensor(const std::string &name, const Point &location,
                  const SensorParams &params = {});

    size_t size() const { return sensors_.size(); }
    const ThermalSensor &sensor(int idx) const { return sensors_[idx]; }
    ThermalSensor &sensor(int idx) { return sensors_[idx]; }

    /** Sample every sensor from the grid. The step length is unused
     *  (no sensor filters); it stays in the signature until the
     *  benchmark's layer walk (perfbench/walk.cc), which passes it, is
     *  next changed. */
    void sampleAll(const ThermalGrid &grid, Seconds, Rng &rng);

    /** Reset all sensors to a temperature. */
    void resetAll(Celsius temp);

    /** Readings of all sensors (delayed). */
    std::vector<Celsius> readings() const;

  private:
    std::vector<ThermalSensor> sensors_;
};

} // namespace boreas
