/**
 * @file
 * Auto-scaling baseline (paper Figs. 8 and 9): latency-critical
 * services scale between one and a maximum number of fixed-size
 * instances, adding a least-loaded server when observed utilization
 * exceeds a threshold (70%, AWS autoscaling's default) and
 * removing one when it falls below a low-water mark. The policy is
 * reactive, heterogeneity- and interference-unaware, and only scales
 * out — the weaknesses the paper demonstrates. Non-service workloads
 * are placed with the least-loaded policy.
 */

#pragma once

#include <unordered_map>
#include <vector>

#include "baselines/reservation_ll.hh"
#include "workload/workload.hh"

namespace quasar::baselines
{

/**
 * Auto-scaling policy knobs. The utilization thresholds, the instance
 * core count, the one-instance floor and the stateful migration model
 * are constants in autoscale.cc.
 */
struct AutoScaleConfig
{
    int max_instances = 8;
    double instance_memory_gb = 16.0;
    /** Consecutive hot ticks required before scaling out. */
    int hot_ticks = 2;
};

/** The auto-scaling manager. */
class AutoScaleManager : public driver::ClusterManager
{
  public:
    AutoScaleManager(sim::Cluster &cluster,
                     workload::WorkloadRegistry &registry,
                     AutoScaleConfig cfg = {}, uint64_t seed = 55);

    void onSubmit(WorkloadId id, double t) override;
    void onTick(double t) override;
    void onCompletion(WorkloadId id, double t) override;
    /** Minimal recovery: relaunch instances of fully-lost workloads. */
    void onServerDown(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override;
    std::string name() const override { return "autoscale"; }

    /** Current instance count of a service. */
    int instancesOf(WorkloadId id) const;

  private:
    bool addInstance(workload::Workload &w, double t);
    void removeInstance(workload::Workload &w);
    /** Observed utilization: served load / current capacity. */
    double observedRho(const workload::Workload &w, double t) const;

    sim::Cluster &cluster_;
    workload::WorkloadRegistry &registry_;
    AutoScaleConfig cfg_;
    stats::Rng rng_;
    workload::PerfOracle oracle_;
    /** Consecutive hot ticks per live service; erased on completion. */
    std::unordered_map<WorkloadId, int> hot_streak_;
    std::vector<WorkloadId> queue_;
    tracegen::ReservationModel model_;
};

} // namespace quasar::baselines

