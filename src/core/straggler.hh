/**
 * @file
 * Straggler detection for map-reduce-style frameworks (paper Sec. 4.3).
 *
 * Models a wave of concurrent map tasks whose progress is reported
 * periodically with noise. Three detectors are implemented:
 *
 *  - HadoopDetector: the framework's speculative execution — flag a
 *    task when its progress deficit versus the median exceeds a large
 *    threshold, sustained over several reports (conservative, to limit
 *    wasted speculative copies).
 *  - LateDetector: LATE-style — rank by estimated finish time, flag
 *    when the ETA exceeds the median ETA by a margin, also sustained.
 *  - QuasarDetector: flag candidates at a much lower deficit threshold
 *    (>= 50% slower than the median) and immediately confirm by
 *    injecting interference microbenchmarks and reclassifying in
 *    place; the probe takes a fixed time but eliminates the need for
 *    long sustained observation, so confirmed detections land earlier
 *    and false positives are filtered by the probe.
 */

#pragma once

#include <vector>

#include "stats/rng.hh"

namespace quasar::core
{

/** One map task in the wave. */
struct MapTask
{
    double duration = 0.0;     ///< true time to completion.
    bool straggler = false;    ///< slowed by interference/instability.

    /** Fraction complete at time t (clamped to 1). */
    double progressAt(double t) const;
};

/** A concurrent wave of map tasks with some stragglers. */
struct TaskWave
{
    std::vector<MapTask> tasks;
    double median_duration = 0.0;

    /**
     * Build a wave: normal tasks ~ lognormal around median, stragglers
     * run slow_factor times longer.
     */
    static TaskWave make(stats::Rng &rng, size_t num_tasks,
                         double median_duration, double straggler_frac,
                         double slow_factor);
};

/** Result of running one detector over a wave. */
struct DetectionResult
{
    /** Per-task detection time (-1 when never flagged). */
    std::vector<double> detect_time;
    /** Mean detection time over true stragglers that were caught. */
    double meanDetectTime() const;
    /** Fraction of true stragglers detected. */
    double recall(const TaskWave &wave) const;
    /** Number of non-stragglers incorrectly flagged. */
    size_t falsePositives(const TaskWave &wave) const;
};

/**
 * Detector tuning. The report period and each detector's deficit,
 * sustain, warmup and probe settings are constants in straggler.cc.
 */
struct DetectorConfig
{
    double progress_noise = 0.04; ///< lognormal sigma per report.
};

/** Run the named detectors over a wave. */
DetectionResult detectHadoop(const TaskWave &wave,
                             const DetectorConfig &cfg, stats::Rng &rng);
DetectionResult detectLate(const TaskWave &wave, const DetectorConfig &cfg,
                           stats::Rng &rng);
DetectionResult detectQuasar(const TaskWave &wave,
                             const DetectorConfig &cfg, stats::Rng &rng);

} // namespace quasar::core

