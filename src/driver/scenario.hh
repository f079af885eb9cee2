/**
 * @file
 * Scenario driver: the simulation harness every experiment runs on.
 *
 * Owns the event queue and advances a cluster + workload registry +
 * manager through a scenario: workload arrivals, periodic ticks that
 * integrate batch progress (fluid model), service load evolution,
 * completions, and utilization/performance recording for the paper's
 * figures.
 */

#pragma once

#include <functional>
#include <map>
#include <vector>

#include "driver/cluster_manager.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "sim/failure.hh"
#include "stats/summary.hh"
#include "stats/timeseries.hh"
#include "stats/timing.hh"
#include "workload/workload.hh"

namespace quasar::driver
{

/** Driver knobs. */
struct DriverConfig
{
    /** Progress-integration / monitoring tick, seconds. */
    double tick_s = 10.0;
    /** Record utilization series every this many ticks. */
    size_t record_every = 1;
};

/**
 * Terminal QoS-accounting outcome of a workload. Every arrival ends
 * in exactly one of these (Active only while the run is still going),
 * so experiment reports can split "killed" into its real causes:
 * churn departures / cancellations vs. overload-control sheds.
 * Brownout degradation is orthogonal (Workload::brownout_ever) — a
 * degraded workload still completes or departs.
 */
enum class WorkloadOutcome
{
    Active,    ///< still running or queued.
    Completed, ///< ran to completion.
    Departed,  ///< churn departure / cancellation (killed, not shed).
    Shed,      ///< dropped by overload control (terminal, accounted).
};

/** Classify a workload into its QoS-accounting outcome. */
WorkloadOutcome outcomeOf(const workload::Workload &w);

/** Per-service tracking for throughput/latency figures. */
struct ServiceTrace
{
    stats::TimeSeries offered_qps;
    stats::TimeSeries served_qps;     ///< throughput within capacity.
    stats::TimeSeries served_ok_qps;  ///< throughput also within QoS.
    stats::TimeSeries p99_latency;
    stats::TimeSeries qos_fraction;   ///< fraction of queries in QoS.
};

/** Drives one scenario run. */
class ScenarioDriver : public sim::FaultListener
{
  public:
    ScenarioDriver(sim::Cluster &cluster,
                   workload::WorkloadRegistry &registry,
                   ClusterManager &manager, DriverConfig cfg = {});

    /** Schedule a workload arrival (workload already registered). */
    void addArrival(WorkloadId id, double t);

    /**
     * Retire a workload at time t (a churn departure: the tenant
     * leaves, the job is cancelled). Batch progress is settled first;
     * then the workload is marked killed, its shares are dropped
     * everywhere, and the manager sees a completion so queued work
     * re-admits into the freed capacity. No-op if already finished.
     */
    void killWorkload(WorkloadId id, double t);

    /**
     * Arm a fault injector against this run: its events fire on the
     * driver's event queue, and the driver settles progress, drops
     * in-flight shares on crashed servers, and relays the failure to
     * the manager's hooks. The injector must outlive the run.
     */
    void installFaults(sim::FaultInjector &faults);

    /** @name FaultListener (called by the armed injector) */
    /// @{
    void beforeServerStateChange(ServerId sid, double t) override;
    void serverFailed(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override;
    void serverRecovered(ServerId sid, double t) override;
    void serverDegraded(ServerId sid, double speed_factor,
                        double t) override;
    /// @}

    /** Run until the given time (events stop firing after it). */
    void run(double until);

    /**
     * Install a callback invoked at the end of every tick (after
     * progress integration and recording) — benches use it to sample
     * experiment-specific state such as per-workload core counts.
     */
    void setTickHook(std::function<void(double)> hook)
    {
        tick_hook_ = std::move(hook);
    }

    sim::EventQueue &events() { return events_; }
    double now() const { return events_.now(); }

    /**
     * Wall-clock (host) cost of the driver tick loop — progress
     * integration, usage refresh, recording, and the manager's
     * adaptation hook together. Completes the decision-path timing
     * story: classify/schedule/adapt live in QuasarStats, rank/place
     * in SchedulerTiming, and the per-tick envelope here.
     */
    const stats::TimerStat &tickTiming() const { return tick_time_; }

    /** @name Recorded results */
    /// @{
    const stats::UtilizationGrid &cpuUsedGrid() const
    {
        return cpu_used_;
    }
    const stats::TimeSeries &aggCpuUsed() const { return agg_cpu_used_; }
    const stats::TimeSeries &aggCpuReserved() const
    {
        return agg_cpu_reserved_;
    }
    const stats::TimeSeries &aggMemUsed() const { return agg_mem_used_; }

    /** Mean normalized performance of a workload over its lifetime. */
    double meanNormalizedPerf(WorkloadId id) const;

    /** Per-service traces (only latency-critical workloads appear). */
    const ServiceTrace *serviceTrace(WorkloadId id) const;

    /** Completion time of a batch workload (-1 if not finished). */
    double completionTime(WorkloadId id) const;
    /// @}

  private:
    void tick();
    void completeWorkload(workload::Workload &w, double at);
    /** Integrate a batch workload's progress up to time t. */
    void integrateProgress(workload::Workload &w, double t);

    sim::Cluster &cluster_;
    workload::WorkloadRegistry &registry_;
    ClusterManager &manager_;
    DriverConfig cfg_;
    sim::EventQueue events_;
    workload::PerfOracle oracle_;

    stats::UtilizationGrid cpu_used_;
    stats::TimeSeries agg_cpu_used_;
    stats::TimeSeries agg_cpu_reserved_;
    stats::TimeSeries agg_mem_used_;

    std::function<void(double)> tick_hook_;
    stats::TimerStat tick_time_;
    std::map<WorkloadId, stats::Accumulator> norm_perf_;
    std::map<WorkloadId, ServiceTrace> service_traces_;
    size_t ticks_ = 0;
    double run_until_ = 0.0;
};

} // namespace quasar::driver

