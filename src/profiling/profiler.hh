/**
 * @file
 * Side-effect-free profiling of incoming workloads (paper Secs. 3.2 and
 * 4.2).
 *
 * On submission, Quasar launches sandboxed copies of the workload and
 * measures it briefly under a handful of configurations:
 *  - scale-up: a canonical reference allocation plus randomly chosen
 *    alternatives on the highest-end platform,
 *  - scale-out: the same parameters on 1..4 nodes,
 *  - heterogeneity: the same parameters on a randomly chosen second
 *    platform,
 *  - interference: injected microbenchmarks ramped until performance
 *    drops below the QoS level, recording the tolerated intensity per
 *    probed source.
 *
 * All measurements carry multiplicative lognormal noise: the managers
 * never see the ground truth exactly. The Profiler also provides the
 * exhaustive (dense) rows used for the offline-characterized seed
 * workloads and for validation.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "stats/rng.hh"
#include "workload/workload.hh"

namespace quasar::profiling
{

/** One observed matrix entry: column index and measured value. */
struct Sample
{
    size_t column = 0;
    double value = 0.0;
};

/** Everything profiling learned about one workload. */
struct ProfilingData
{
    /** Platform used for scale-up profiling (highest-end). */
    size_t scale_up_platform = 0;
    /** Reference configuration shared by all profiling runs. */
    workload::ScaleUpConfig reference;
    /** Raw measurement at the reference configuration. */
    double reference_value = 0.0;

    std::vector<Sample> scale_up;      ///< columns into the scale-up grid.
    std::vector<Sample> scale_out;     ///< columns into the node grid.
    /**
     * Columns = platform indices; measured at the small canonical
     * hetConfig() so values are comparable across platforms. Entry 0
     * is always the profiling platform (the row's normalizer).
     */
    std::vector<Sample> heterogeneity;
    std::vector<Sample> interference;  ///< columns = sources; value =
                                       ///< tolerated intensity.
    std::vector<Sample> caused;        ///< columns = sources; value =
                                       ///< caused pressure per core.

    /** Wall-clock profiling cost charged to the workload, seconds. */
    double profiling_seconds = 0.0;
};

/** Profiling knobs. */
struct ProfilerConfig
{
    /** Observed entries per classification row (paper default: 2). */
    size_t samples_per_classification = 2;
    /** Lognormal sigma of measurement noise. */
    double noise_sigma = 0.05;
};

/** Produces profiling data from sandboxed runs. */
class Profiler
{
  public:
    Profiler(std::vector<sim::Platform> catalog, ProfilerConfig cfg = {});

    /** Profile a workload at submission (or re-profile at time t). */
    ProfilingData profile(const workload::Workload &w, double t,
                          stats::Rng &rng) const;

    /** @name Single sandboxed measurements */
    /// @{
    /**
     * Measured performance (rate, or capacity QPS for services) of one
     * node of the given platform at cfg under zero contention.
     */
    double measureNode(const workload::Workload &w, double t,
                       const sim::Platform &platform,
                       const workload::ScaleUpConfig &cfg,
                       stats::Rng &rng) const;

    /** Measured performance of n identical nodes. */
    double measureNodes(const workload::Workload &w, double t,
                        const sim::Platform &platform,
                        const workload::ScaleUpConfig &cfg, int nodes,
                        stats::Rng &rng) const;

    /**
     * Probe tolerated intensity for one interference source by ramping
     * a microbenchmark (noise-free probe, quantized by the ramp step).
     */
    double probeTolerance(const workload::Workload &w, double t,
                          const sim::Platform &platform,
                          const workload::ScaleUpConfig &cfg,
                          interference::Source source) const;
    /// @}

    /**
     * Measured pressure per allocated core the workload causes on one
     * source (observed by co-running a canary probe next to it).
     */
    double measureCausedPerCore(const workload::Workload &w, double t,
                                interference::Source source,
                                stats::Rng &rng) const;

    /** @name Dense (exhaustive offline) rows */
    /// @{
    std::vector<double> denseScaleUpRow(const workload::Workload &w,
                                        double t, stats::Rng &rng) const;
    std::vector<double>
    denseScaleOutRow(const workload::Workload &w, double t,
                     const workload::ScaleUpConfig &ref,
                     stats::Rng &rng) const;
    std::vector<double>
    denseHeterogeneityRow(const workload::Workload &w, double t,
                          stats::Rng &rng) const;
    std::vector<double>
    denseInterferenceRow(const workload::Workload &w, double t,
                         const workload::ScaleUpConfig &ref) const;
    std::vector<double> denseCausedRow(const workload::Workload &w,
                                       double t, stats::Rng &rng) const;
    /// @}

    /**
     * Profiling wall-clock cost by workload type (paper Sec. 3.4:
     * 10-15 s for batch, minutes for analytics with dataset, up to
     * 3-5 min setup for stateful services).
     */
    double profilingSeconds(const workload::Workload &w,
                            size_t num_samples) const;

    /** Clamp a configuration to what a platform can host. */
    static workload::ScaleUpConfig
    clampConfig(const workload::ScaleUpConfig &cfg,
                const sim::Platform &platform);

    /** The canonical reference configuration on a platform. */
    static workload::ScaleUpConfig
    referenceConfig(const sim::Platform &platform,
                    workload::WorkloadType type);

    /**
     * The small canonical configuration (1 core, 1 GB) used for
     * heterogeneity profiling: it fits every platform, so measured
     * values isolate per-platform speed rather than capacity.
     */
    static workload::ScaleUpConfig hetConfig();

    const std::vector<sim::Platform> &catalog() const { return catalog_; }
    const ProfilerConfig &config() const { return cfg_; }
    size_t scaleUpPlatform() const { return scale_up_platform_; }

  private:
    std::vector<sim::Platform> catalog_;
    ProfilerConfig cfg_;
    size_t scale_up_platform_;
};

} // namespace quasar::profiling

