#include "baselines/autoscale.hh"

#include <algorithm>

namespace quasar::baselines
{

using workload::Workload;

namespace
{

/** Add an instance above this observed utilization (AWS's default). */
constexpr double kScaleOutRho = 0.70;
/** Remove one below this low-water mark, down to one instance. */
constexpr double kScaleInRho = 0.25;
/** Consecutive hot ticks required before scaling out. */
constexpr int kHotTicks = 2;
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
    : ReservationManager(cluster, registry, seed,
                         tracegen::ReservationModel{},
                         workload::FrameworkKnobs{}),
      cfg_(cfg), oracle_(cluster, registry)
{
}

Reservation
AutoScaleManager::sizeReservation(const Workload &w, double t)
{
    // A service reserves one fixed-size instance; scale-out adds more.
    if (workload::isLatencyCritical(w.type))
        return Reservation{1, kInstanceCores, cfg_.instance_memory_gb};
    return ReservationManager::sizeReservation(w, t);
}

bool
AutoScaleManager::placeNodes(Workload &w, double t,
                             const Reservation &res)
{
    if (workload::isLatencyCritical(w.type))
        return addInstance(w, t);
    return ReservationManager::placeNodes(w, t, res);
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
    for (ServerId sid : leastLoaded()) {
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
AutoScaleManager::onTick(double t)
{
    retryQueue(t);

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
            if (++hot_streak_[id] >= kHotTicks &&
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
AutoScaleManager::onCompletion(WorkloadId id, double t)
{
    hot_streak_.erase(id);
    // Retry the queue only: a completion is not a tick, and kHotTicks
    // counts ticks.
    ReservationManager::onCompletion(id, t);
}

int
AutoScaleManager::instancesOf(WorkloadId id) const
{
    return int(cluster_.serversHosting(id).size());
}

} // namespace quasar::baselines
