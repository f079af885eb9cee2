#include "baselines/autoscale.hh"

#include <algorithm>
#include <cassert>

namespace quasar::baselines
{

using workload::Workload;

namespace
{

/** Add an instance above this observed utilization (AWS's default). */
constexpr double kScaleOutRho = 0.70;
/** Remove one below this low-water mark, down to one instance. */
constexpr double kScaleInRho = 0.25;
/** Cores of a fixed-size instance (capped at the machine's). */
constexpr int kInstanceCores = 8;
/** Stateful scale-out moves shards at this bandwidth, GB/s ... */
constexpr double kMigrationGbps = 1.0;
/** ... while the service runs at this fraction of its speed. */
constexpr double kMigrationFactor = 0.85;

} // namespace

AutoScaleManager::AutoScaleManager(sim::Cluster &cluster,
                                   workload::WorkloadRegistry &registry,
                                   AutoScaleConfig cfg, uint64_t seed)
    : cluster_(cluster), registry_(registry), cfg_(cfg), rng_(seed),
      oracle_(cluster, registry)
{
}

double
AutoScaleManager::observedRho(const Workload &w, double t) const
{
    double cap = oracle_.serviceCapacityQps(w, t);
    if (cap <= 0.0)
        return 1.0;
    return std::min(1.5, w.offeredQps(t) / cap);
}

bool
AutoScaleManager::addInstance(Workload &w, double t)
{
    // Least-loaded server that fits a fixed-size instance; the policy
    // knows nothing about platform types or co-runner interference.
    for (ServerId sid : leastLoadedOrder(cluster_)) {
        sim::Server &srv = cluster_.server(sid);
        if (srv.hosts(w.id))
            continue;
        int cores = std::min(kInstanceCores, srv.platform().cores);
        double mem = std::min(cfg_.instance_memory_gb,
                              srv.platform().memory_gb);
        if (!srv.canFit(cores, mem, w.storage_gb_per_node))
            continue;
        srv.place(nodeShare(w, t, cores, mem, false));
        // Stateful services must move shards to the new instance.
        if (w.type == workload::WorkloadType::StatefulService &&
            w.state_gb > 0.0) {
            size_t n = cluster_.serversHosting(w.id).size();
            double moved = w.state_gb / double(std::max<size_t>(n, 1));
            w.degraded_until = t + moved / kMigrationGbps;
            w.degraded_factor = kMigrationFactor;
        }
        return true;
    }
    return false;
}

void
AutoScaleManager::removeInstance(Workload &w)
{
    auto hosting = cluster_.serversHosting(w.id);
    if (hosting.size() <= 1)
        return;
    cluster_.server(hosting.back()).remove(w.id);
}

void
AutoScaleManager::onSubmit(WorkloadId id, double t)
{
    Workload &w = registry_.get(id);
    if (workload::isLatencyCritical(w.type)) {
        if (!addInstance(w, t))
            queue_.push_back(id);
        w.last_progress_update = t;
        return;
    }
    // Batch workloads: reservation + least-loaded placement.
    Reservation res =
        userReservation(w, cluster_.catalog(), model_, rng_);
    if (placeLeastLoaded(cluster_, w, t, res, w.best_effort).empty())
        queue_.push_back(id);
    else
        w.last_progress_update = t;
}

void
AutoScaleManager::onTick(double t)
{
    // Retry queued submissions.
    std::vector<WorkloadId> still_waiting;
    for (WorkloadId id : queue_) {
        Workload &w = registry_.get(id);
        if (w.completed || w.killed)
            continue;
        bool ok;
        if (workload::isLatencyCritical(w.type)) {
            ok = addInstance(w, t);
        } else {
            Reservation res =
                userReservation(w, cluster_.catalog(), model_, rng_);
            ok = !placeLeastLoaded(cluster_, w, t, res, w.best_effort)
                      .empty();
        }
        if (!ok)
            still_waiting.push_back(id);
    }
    queue_ = std::move(still_waiting);

    // Scale services on observed utilization.
    for (WorkloadId id : registry_.active()) {
        Workload &w = registry_.get(id);
        if (!workload::isLatencyCritical(w.type))
            continue;
        auto hosting = cluster_.serversHosting(id);
        if (hosting.empty())
            continue;
        double rho = observedRho(w, t);
        if (rho > kScaleOutRho) {
            if (++hot_streak_[id] >= cfg_.hot_ticks &&
                int(hosting.size()) < cfg_.max_instances) {
                addInstance(w, t);
                hot_streak_[id] = 0;
            }
        } else {
            hot_streak_[id] = 0;
            if (rho < kScaleInRho)
                removeInstance(w);
        }
    }
}

void
AutoScaleManager::onCompletion(WorkloadId id, double)
{
    hot_streak_.erase(id);
}

void
AutoScaleManager::onServerDown(ServerId,
                               const std::vector<WorkloadId> &displaced,
                               double t)
{
    // Services that lost *some* instances recover through the normal
    // utilization-driven scale-out loop; a service (or batch job) that
    // lost *all* of them is invisible to that loop and must be
    // relaunched here.
    for (WorkloadId id : displaced) {
        Workload &w = registry_.get(id);
        if (w.completed || w.killed)
            continue;
        if (!cluster_.serversHosting(id).empty())
            continue;
        bool ok;
        if (workload::isLatencyCritical(w.type)) {
            ok = addInstance(w, t);
        } else {
            Reservation res =
                userReservation(w, cluster_.catalog(), model_, rng_);
            ok = !placeLeastLoaded(cluster_, w, t, res, w.best_effort)
                      .empty();
        }
        if (ok)
            w.last_progress_update = t;
        else if (std::find(queue_.begin(), queue_.end(), id) ==
                 queue_.end())
            queue_.push_back(id);
    }
}

int
AutoScaleManager::instancesOf(WorkloadId id) const
{
    return int(cluster_.serversHosting(id).size());
}

} // namespace quasar::baselines
