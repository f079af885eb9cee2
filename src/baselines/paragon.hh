/**
 * @file
 * Reservation + Paragon baseline (paper Fig. 11): resource allocation
 * still comes from user/framework reservations, but resource
 * *assignment* uses Paragon-style CF classification — servers are
 * ranked by heterogeneity (platform) affinity and interference fit,
 * and workloads are placed so co-runners tolerate each other. No
 * allocation sizing, no knob tuning, no runtime rightsizing: exactly
 * the capability gap the paper attributes to assignment-only systems.
 */

#pragma once

#include <unordered_map>
#include <vector>

#include "core/classifier.hh"
#include "baselines/reservation_ll.hh"

namespace quasar::baselines
{

/**
 * Reservation allocation + Paragon CF assignment: each workload is
 * profiled and classified at submit, right after its reservation is
 * drawn.
 */
class ParagonManager : public ReservationManager
{
  public:
    ParagonManager(sim::Cluster &cluster,
                   workload::WorkloadRegistry &registry,
                   uint64_t seed = 88,
                   tracegen::ReservationModel model = {});

    /** Anchor the classifier with offline-profiled seed workloads. */
    void seedOffline(const std::vector<workload::Workload> &seeds,
                     double t = 0.0);

    std::string name() const override { return "reservation+paragon"; }

    const core::WorkloadEstimate *estimateFor(WorkloadId id) const;

  private:
    Reservation sizeReservation(const workload::Workload &w,
                                double t) override;
    bool placeNodes(workload::Workload &w, double t,
                    const Reservation &res) override;

    profiling::Profiler profiler_;
    core::Classifier classifier_;
    /** The submit-time estimate, per workload ever submitted. Kept
     *  after completion on purpose: estimateFor() is read after the
     *  run (the Paragon tests). */
    std::unordered_map<WorkloadId, core::WorkloadEstimate> estimates_;
};

} // namespace quasar::baselines
