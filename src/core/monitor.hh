/**
 * @file
 * Runtime monitoring and phase detection (paper Sec. 4.1).
 *
 * The monitor measures every active workload's performance against its
 * constraint (with measurement noise — managers never see the oracle
 * exactly), raising under-performance and over-provisioning alerts.
 * It also supports the paper's proactive phase detection: periodically
 * sampling active workloads and injecting interference
 * microbenchmarks in place; a significant deviation from the
 * workload's classified tolerance signals a phase change.
 */

#pragma once

#include "core/estimate.hh"
#include "profiling/profiler.hh"
#include "stats/rng.hh"
#include "workload/workload.hh"

namespace quasar::core
{

/** Monitor thresholds. */
struct MonitorConfig
{
    /** Lognormal sigma on monitored performance readings. */
    double noise_sigma = 0.03;
};

/** What the monitor concluded about one workload. */
enum class Alert
{
    None,
    Underperforming,
    Overprovisioned,
};

/** Measures running workloads and detects deviations. */
class Monitor
{
  public:
    Monitor(const sim::Cluster &cluster,
            const workload::WorkloadRegistry &registry,
            MonitorConfig cfg, stats::Rng rng)
        : oracle_(cluster, registry), cfg_(cfg), rng_(rng) {}

    /** Noisy normalized-performance reading for a workload. */
    double measure(const workload::Workload &w, double t);

    /** Noisy absolute performance (rate, or capacity for services). */
    double measureAbsolute(const workload::Workload &w, double t);

    /** Classify the current reading into an alert. */
    Alert check(const workload::Workload &w, double t);

    /**
     * In-place partial interference classification: probe a few
     * sources and compare against the classified tolerance. True when
     * the deviation exceeds the phase threshold (a phase change or a
     * misclassification).
     */
    bool probePhaseChange(const workload::Workload &w,
                          const WorkloadEstimate &est,
                          const profiling::Profiler &profiler, double t);

    const MonitorConfig &config() const { return cfg_; }
    const workload::PerfOracle &oracle() const { return oracle_; }

  private:
    workload::PerfOracle oracle_;
    MonitorConfig cfg_;
    stats::Rng rng_;
};

} // namespace quasar::core

