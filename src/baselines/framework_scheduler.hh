/**
 * @file
 * Framework self-scheduler baseline (paper Figs. 5-7, Table 3): each
 * analytics framework (Hadoop/Storm/Spark) sizes its own job from
 * dataset-driven heuristics with default knob settings, and picks
 * servers without regard to platform type or interference — the
 * behaviour the paper attributes to built-in framework schedulers.
 */

#pragma once

#include "baselines/reservation_ll.hh"

namespace quasar::baselines
{

/** Hadoop's default tuning (paper Table 3, "Hadoop" column). */
workload::FrameworkKnobs hadoopDefaultKnobs();

/**
 * The reservation a framework derives for its own job: node count
 * from the dataset size, fixed per-node slots (mappers x 1 core),
 * memory from mappers x heapsize.
 */
Reservation frameworkReservation(const workload::Workload &w);

/**
 * Framework self-scheduling manager: analytics jobs size themselves
 * with frameworkReservation, everything else reserves as a user
 * would, and every placed workload runs with Hadoop's default knobs.
 * Assignment is least-loaded: frameworks choose from all server types
 * indiscriminately.
 */
class FrameworkSelfManager : public ReservationManager
{
  public:
    FrameworkSelfManager(sim::Cluster &cluster,
                         workload::WorkloadRegistry &registry,
                         uint64_t seed = 66);

    std::string name() const override { return "framework-schedulers"; }

  private:
    Reservation sizeReservation(const workload::Workload &w,
                                double t) override;
};

} // namespace quasar::baselines
