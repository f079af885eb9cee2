/**
 * @file
 * Reservation-based allocation + least-loaded assignment: the
 * conventional cluster manager Quasar is compared against (paper
 * Figs. 1 and 11).
 *
 * Users/frameworks submit resource reservations derived from their own
 * (imperfect) understanding of the workload: a true need estimated
 * from a mid-tier platform, multiplied by the Fig. 1d reservation
 * error distribution. Assignment packs reservations onto the
 * least-loaded servers with no heterogeneity or interference
 * awareness, and never adapts at runtime.
 *
 * The reservation lifecycle itself (ReservationManager) is shared with
 * the framework self-scheduler, the Paragon baseline and the
 * auto-scaler, which differ only in sizing, assignment, the knobs they
 * run with and (auto-scaling) a per-tick scaling round.
 */

#pragma once

#include <unordered_map>
#include <vector>

#include "driver/cluster_manager.hh"
#include "sim/cluster.hh"
#include "stats/rng.hh"
#include "tracegen/reservation_model.hh"
#include "workload/workload.hh"

namespace quasar::baselines
{

/** A user/framework resource reservation. */
struct Reservation
{
    int nodes = 1;
    int cores_per_node = 1;
    double memory_per_node_gb = 1.0;
};

/**
 * The right-sized allocation a perfectly informed user would request:
 * sized on a mid-tier platform to just meet the target.
 */
Reservation trueNeed(const workload::Workload &w,
                     const std::vector<sim::Platform> &catalog);

/**
 * What the user actually reserves: the true need distorted by the
 * reservation error model (70% over-size up to 10x, 20% under-size).
 */
Reservation userReservation(const workload::Workload &w,
                            const std::vector<sim::Platform> &catalog,
                            const tracegen::ReservationModel &model,
                            stats::Rng &rng);

/** Every server, least allocated-core fraction first (ties by id). */
std::vector<ServerId> leastLoadedOrder(const sim::Cluster &cluster);

/** One node's share of (cores, memory) for w, placed at time t. */
sim::TaskShare nodeShare(const workload::Workload &w, double t, int cores,
                         double memory_gb, bool best_effort);

/**
 * Least-loaded placement: fill `nodes` shares of (cores, memory) on
 * the servers with the lowest allocated-core fraction.
 * @return ids of servers used (possibly fewer than requested).
 */
std::vector<ServerId>
placeLeastLoaded(sim::Cluster &cluster, const workload::Workload &w,
                 double t, const Reservation &res, bool best_effort);

/**
 * The reservation lifecycle the reservation-based baselines share:
 * draw a workload's reservation at submit, place it or queue it, retry
 * the queue on every tick and completion, and after a crash relaunch
 * only the missing nodes (or requeue a workload that lost them all).
 * Reservations never adapt at runtime. A baseline supplies only its
 * policy: how a reservation is sized (sizeReservation), where its
 * nodes go (placeNodes), and the knobs a placed workload runs with.
 */
class ReservationManager : public driver::ClusterManager
{
  public:
    void onSubmit(WorkloadId id, double t) override;
    void onTick(double t) override;
    void onCompletion(WorkloadId id, double t) override;
    /** Minimal recovery: top up lost nodes / requeue when unplaced. */
    void onServerDown(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override;

    /** Reservation recorded for a workload (after error model). */
    const Reservation *reservationFor(WorkloadId id) const;

  protected:
    ReservationManager(sim::Cluster &cluster,
                       workload::WorkloadRegistry &registry,
                       uint64_t seed, tracegen::ReservationModel model,
                       workload::FrameworkKnobs knobs);

    /** Size w's reservation at submit; default userReservation. */
    virtual Reservation sizeReservation(const workload::Workload &w,
                                        double t);

    /**
     * Place up to res.nodes shares of w on servers not hosting it yet;
     * default placeLeastLoaded.
     * @return whether at least one share was placed.
     */
    virtual bool placeNodes(workload::Workload &w, double t,
                            const Reservation &res);

    /** Retry the queue in arrival order; onTick and onCompletion. */
    void retryQueue(double t);

    sim::Cluster &cluster_;
    workload::WorkloadRegistry &registry_;
    stats::Rng rng_;

  private:
    bool tryPlace(WorkloadId id, double t);

    tracegen::ReservationModel model_;
    /** Knobs a placed workload runs with (reservations: untuned). */
    workload::FrameworkKnobs knobs_;
    /** The reservation drawn at submit, per workload ever submitted.
     *  Kept after completion on purpose: reservationFor() is read
     *  after the run (bench/fig01, the ReservationLL tests). */
    std::unordered_map<WorkloadId, Reservation> reservations_;
    std::vector<WorkloadId> queue_;
};

/** Reservation + least-loaded manager. */
class ReservationLLManager : public ReservationManager
{
  public:
    ReservationLLManager(sim::Cluster &cluster,
                         workload::WorkloadRegistry &registry,
                         uint64_t seed = 77,
                         tracegen::ReservationModel model = {});

    std::string name() const override { return "reservation+LL"; }
};

} // namespace quasar::baselines
