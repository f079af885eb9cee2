/**
 * @file
 * Auto-scaling baseline (paper Figs. 8 and 9): latency-critical
 * services scale between one and a maximum number of fixed-size
 * instances, adding a least-loaded server when observed utilization
 * exceeds a threshold (70%, AWS autoscaling's default) and
 * removing one when it falls below a low-water mark. The policy is
 * reactive, heterogeneity- and interference-unaware, and only scales
 * out — the weaknesses the paper demonstrates. Non-service workloads
 * are sized and placed as under reservation + least-loaded, and every
 * workload goes through the shared reservation lifecycle (submit,
 * queue, crash recovery).
 */

#pragma once

#include <unordered_map>

#include "baselines/reservation_ll.hh"
#include "workload/workload.hh"

namespace quasar::baselines
{

/**
 * Auto-scaling policy knobs. The utilization thresholds, the hot-tick
 * streak, the instance core count, the one-instance floor and the
 * stateful migration model are constants in autoscale.cc.
 */
struct AutoScaleConfig
{
    int max_instances = 8;
    double instance_memory_gb = 16.0;
};

/**
 * The auto-scaling manager: a ReservationManager whose services
 * reserve one fixed-size instance each, and which scales those
 * services on observed utilization after every tick's queue retry.
 */
class AutoScaleManager : public ReservationManager
{
  public:
    AutoScaleManager(sim::Cluster &cluster,
                     workload::WorkloadRegistry &registry,
                     AutoScaleConfig cfg = {}, uint64_t seed = 55);

    void onTick(double t) override;
    void onCompletion(WorkloadId id, double t) override;
    std::string name() const override { return "autoscale"; }

    /** Current instance count of a service. */
    int instancesOf(WorkloadId id) const;

  private:
    Reservation sizeReservation(const workload::Workload &w,
                                double t) override;
    bool placeNodes(workload::Workload &w, double t,
                    const Reservation &res) override;

    bool addInstance(workload::Workload &w, double t);
    void removeInstance(workload::Workload &w);
    /** Observed utilization: served load / current capacity. */
    double observedRho(const workload::Workload &w, double t) const;

    AutoScaleConfig cfg_;
    workload::PerfOracle oracle_;
    /** Consecutive hot ticks per live service; erased on completion. */
    std::unordered_map<WorkloadId, int> hot_streak_;
};

} // namespace quasar::baselines

