/**
 * @file
 * Hotspot event extraction (the characterization role HotGauge plays in
 * Sec. II-B: "automatically classifying and detecting hotspots").
 *
 * A hotspot *event* is a contiguous interval during which the chip's
 * max Hotspot-Severity stays at or above a threshold (1.0 by default).
 * The detector also measures each event's *onset time* — how long the
 * severity took to climb from an arming level (0.8 by default) to the
 * threshold — which is the quantitative form of the paper's core
 * motivation: advanced hotspots form faster than sensor+DVFS loops can
 * react. Exit uses the arming level as hysteresis so severity jitter
 * around the threshold does not fragment one physical event into many.
 */

#pragma once

#include <vector>

#include "common/types.hh"
#include "hotspot/severity.hh"

namespace boreas
{

/** One detected hotspot event. */
struct HotspotEvent
{
    int startStep = 0;        ///< first step at/above the threshold
    int endStep = 0;          ///< first step back below the arm level
    double peakSeverity = 0.0;
    int peakCell = -1;        ///< cell index at the severity peak
    Celsius peakTemp = 0.0;   ///< temperature at the peak step
    Celsius peakMltd = 0.0;   ///< MLTD at the peak step
    /**
     * Seconds from arming (severity crossing the arm level) to the
     * threshold crossing; negative if the trace started already armed.
     */
    Seconds onset = 0.0;

    int durationSteps() const { return endStep - startStep; }
};

/** Streaming hotspot-event detector over per-step severity snapshots. */
class HotspotDetector
{
  public:
    /**
     * @param threshold severity level defining an event (paper: 1.0)
     * @param arm_level hysteresis/onset-reference level (< threshold)
     */
    explicit HotspotDetector(double threshold = 1.0,
                             double arm_level = 0.8);

    double threshold() const { return threshold_; }

    /** Feed one telemetry step's snapshot (call in step order). */
    void observe(const SeveritySnapshot &snap,
                 Seconds step_length = kTelemetryStep);

    /** Close any open event (call once after the last step). */
    void finish();

    /** Events detected so far (closed events only until finish()). */
    const std::vector<HotspotEvent> &events() const { return events_; }

    /** Total steps covered by detected events (onset tail included:
     *  an event ends when severity falls below the arm level, so this
     *  is >= the strict count of steps at/above the threshold). */
    int totalEventSteps() const;

    /** Fastest onset across events; +inf if no event had one. */
    Seconds fastestOnset() const;

    /** Reset to a fresh trace. */
    void reset();

  private:
    void closeEvent();

    double threshold_;
    double armLevel_;

    int step_ = 0;
    bool armed_ = false;
    Seconds armTime_ = 0.0;
    bool inEvent_ = false;
    HotspotEvent current_;
    std::vector<HotspotEvent> events_;
};

/** Convenience: extract events from a full run's snapshots. */
std::vector<HotspotEvent> extractHotspotEvents(
    const std::vector<SeveritySnapshot> &steps,
    double threshold = 1.0, double arm_level = 0.8,
    Seconds step_length = kTelemetryStep);

} // namespace boreas
