#include "baselines/reservation_ll.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "workload/queueing.hh"

namespace quasar::baselines
{

using workload::TargetKind;
using workload::Workload;

namespace
{

/** The platform a typical user benchmarks on: a mid-tier box. */
const sim::Platform &
midPlatform(const std::vector<sim::Platform> &catalog)
{
    assert(!catalog.empty());
    return catalog[catalog.size() / 2];
}

workload::ScaleUpConfig
defaultConfig(const Workload &w, const sim::Platform &p)
{
    workload::ScaleUpConfig cfg;
    // Users reserve medium instances (4 vCPUs) per node so the
    // reservation is placeable across most of the fleet.
    cfg.cores = std::min(4, p.cores);
    cfg.memory_gb = std::min(w.truth.mem_demand_gb, p.memory_gb);
    // Users do not tune framework knobs; defaults apply.
    return cfg;
}

} // namespace

Reservation
trueNeed(const Workload &w, const std::vector<sim::Platform> &catalog)
{
    const sim::Platform &mid = midPlatform(catalog);
    Reservation res;

    if (w.type == workload::WorkloadType::SingleNode) {
        res.nodes = 1;
        res.memory_per_node_gb =
            std::min(w.truth.mem_demand_gb, mid.memory_gb);
        res.cores_per_node = 1;
        for (int c = 1; c <= mid.cores; ++c) {
            workload::ScaleUpConfig cfg;
            cfg.cores = c;
            cfg.memory_gb = res.memory_per_node_gb;
            res.cores_per_node = c;
            if (w.truth.nodeRateQuiet(mid, cfg) >= w.target.rate)
                break;
        }
        // Users think in instance sizes: reservations are rounded up
        // to the next standard flavor (this, plus the estimation
        // error applied later, is where the reserved-vs-used gap of
        // the paper's Fig. 1 comes from).
        static const int flavors[] = {1, 2, 4, 8, 16, 24};
        for (int f : flavors)
            if (f >= res.cores_per_node) {
                res.cores_per_node = f;
                break;
            }
        res.memory_per_node_gb =
            std::max(res.memory_per_node_gb, 2.0);
        return res;
    }

    workload::ScaleUpConfig cfg = defaultConfig(w, mid);
    res.cores_per_node = cfg.cores;
    res.memory_per_node_gb = cfg.memory_gb;
    double node_rate = w.truth.nodeRateQuiet(mid, cfg);

    double required;
    if (w.target.kind == TargetKind::QpsLatency) {
        double headroom = -std::log(0.01) / w.target.latency_qos_s;
        required = w.target.qps + headroom;
        node_rate = w.truth.capacityQps(node_rate);
    } else {
        required = w.target.rate;
    }

    res.nodes = 1;
    for (int n = 1; n <= 60; ++n) {
        res.nodes = n;
        std::vector<double> rates(size_t(n), node_rate);
        double total = w.truth.jobRate(rates);
        if (w.target.kind == TargetKind::QpsLatency) {
            // jobRate applied to per-node capacities directly.
            total = 0.0;
            for (double r : rates)
                total += r;
            total *= w.truth.scaleOutEfficiency(n);
        }
        if (total >= required)
            break;
    }
    return res;
}

Reservation
userReservation(const Workload &w,
                const std::vector<sim::Platform> &catalog,
                const tracegen::ReservationModel &model, stats::Rng &rng)
{
    // A reservation can only name instance sizes that exist in the
    // fleet: over-estimation is capped at the largest machine.
    int max_cores = 1;
    double max_mem = 1.0;
    for (const sim::Platform &p : catalog) {
        max_cores = std::max(max_cores, p.cores);
        max_mem = std::max(max_mem, p.memory_gb);
    }
    Reservation res = trueNeed(w, catalog);
    double ratio = model.sampleRatio(rng);
    if (workload::isDistributed(w.type)) {
        res.nodes = std::clamp(
            int(std::lround(double(res.nodes) * ratio)), 1, 60);
    } else {
        res.cores_per_node = std::clamp(
            int(std::lround(double(res.cores_per_node) * ratio)), 1,
            max_cores);
        res.memory_per_node_gb = std::clamp(
            res.memory_per_node_gb * ratio, 0.5, max_mem);
    }
    return res;
}

std::vector<ServerId>
leastLoadedOrder(const sim::Cluster &cluster)
{
    std::vector<std::pair<double, ServerId>> keyed;
    keyed.reserve(cluster.size());
    for (size_t i = 0; i < cluster.size(); ++i)
        keyed.emplace_back(cluster.server(ServerId(i)).cpuReservedFraction(),
                           ServerId(i));
    std::sort(keyed.begin(), keyed.end());
    std::vector<ServerId> order;
    order.reserve(keyed.size());
    for (const auto &[load, sid] : keyed)
        order.push_back(sid);
    return order;
}

sim::TaskShare
nodeShare(const Workload &w, double t, int cores, double memory_gb,
          bool best_effort)
{
    sim::TaskShare share;
    share.workload = w.id;
    share.cores = cores;
    share.memory_gb = memory_gb;
    share.storage_gb = w.storage_gb_per_node;
    share.caused = w.causedPressure(t, cores);
    share.best_effort = best_effort;
    return share;
}

std::vector<ServerId>
placeLeastLoaded(sim::Cluster &cluster, const std::vector<ServerId> &order,
                 const Workload &w, double t, const Reservation &res,
                 bool best_effort)
{
    // Down servers sort in too; canFit rejects them.
    auto fits = [&](ServerId sid) {
        const sim::Server &srv = cluster.server(sid);
        return !srv.hosts(w.id) &&
               srv.canFit(res.cores_per_node, res.memory_per_node_gb,
                          w.storage_gb_per_node);
    };
    std::vector<ServerId> used;
    for (int n = 0; n < res.nodes; ++n) {
        auto it = std::find_if(order.begin(), order.end(), fits);
        if (it == order.end())
            break;
        cluster.server(*it).place(nodeShare(w, t, res.cores_per_node,
                                            res.memory_per_node_gb,
                                            best_effort));
        used.push_back(*it);
    }
    return used;
}

ReservationManager::ReservationManager(sim::Cluster &cluster,
                                       workload::WorkloadRegistry &registry,
                                       uint64_t seed,
                                       tracegen::ReservationModel model,
                                       workload::FrameworkKnobs knobs)
    : cluster_(cluster), registry_(registry), rng_(seed), model_(model),
      knobs_(knobs)
{
}

Reservation
ReservationManager::sizeReservation(const Workload &w, double)
{
    return userReservation(w, cluster_.catalog(), model_, rng_);
}

bool
ReservationManager::placeNodes(Workload &w, double t,
                               const Reservation &res)
{
    return !placeLeastLoaded(cluster_, leastLoaded(), w, t, res,
                             w.best_effort)
                .empty();
}

const std::vector<ServerId> &
ReservationManager::leastLoaded()
{
    if (ll_order_at_ != cluster_.journal().end()) {
        ll_order_ = leastLoadedOrder(cluster_);
        ll_order_at_ = cluster_.journal().end();
    }
    return ll_order_;
}

void
ReservationManager::onSubmit(WorkloadId id, double t)
{
    reservations_[id] = sizeReservation(registry_.get(id), t);
    if (!tryPlace(id, t))
        queue_.push_back(id);
}

bool
ReservationManager::tryPlace(WorkloadId id, double t)
{
    Workload &w = registry_.get(id);
    if (!placeNodes(w, t, reservations_.at(id)))
        return false;
    w.active_knobs = knobs_;
    w.last_progress_update = t;
    return true;
}

void
ReservationManager::retryQueue(double t)
{
    std::vector<WorkloadId> still_waiting;
    for (WorkloadId id : queue_) {
        const Workload &w = registry_.get(id);
        if (w.completed || w.killed)
            continue;
        if (!tryPlace(id, t))
            still_waiting.push_back(id);
    }
    queue_ = std::move(still_waiting);
}

void
ReservationManager::onTick(double t)
{
    retryQueue(t);
}

void
ReservationManager::onCompletion(WorkloadId, double t)
{
    retryQueue(t); // the freed capacity may fit a queued reservation
}

void
ReservationManager::onServerDown(ServerId,
                                 const std::vector<WorkloadId> &displaced,
                                 double t)
{
    // Minimal recovery, matching how reservation systems behave: the
    // user's orchestration relaunches lost instances of the same
    // reservation through the same assignment policy, or waits in the
    // queue.
    for (WorkloadId id : displaced) {
        Workload &w = registry_.get(id);
        if (w.completed || w.killed)
            continue;
        auto it = reservations_.find(id);
        if (it == reservations_.end())
            continue;
        size_t remaining = cluster_.serversHosting(id).size();
        if (remaining == 0) {
            if (!tryPlace(id, t) &&
                std::find(queue_.begin(), queue_.end(), id) ==
                    queue_.end())
                queue_.push_back(id);
            continue;
        }
        Reservation missing = it->second;
        missing.nodes -= int(remaining);
        if (missing.nodes > 0)
            placeNodes(w, t, missing);
    }
}

const Reservation *
ReservationManager::reservationFor(WorkloadId id) const
{
    auto it = reservations_.find(id);
    return it == reservations_.end() ? nullptr : &it->second;
}

ReservationLLManager::ReservationLLManager(
    sim::Cluster &cluster, workload::WorkloadRegistry &registry,
    uint64_t seed, tracegen::ReservationModel model)
    : ReservationManager(cluster, registry, seed, model,
                         workload::FrameworkKnobs{})
{
}

} // namespace quasar::baselines
