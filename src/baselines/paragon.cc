#include "baselines/paragon.hh"

#include <algorithm>
#include <cassert>

namespace quasar::baselines
{

using workload::Workload;

ParagonManager::ParagonManager(sim::Cluster &cluster,
                               workload::WorkloadRegistry &registry,
                               uint64_t seed,
                               tracegen::ReservationModel model)
    : cluster_(cluster), registry_(registry), model_(model),
      profiler_(cluster.catalog(), profiling::ProfilerConfig{}),
      classifier_(profiler_, core::ClassifierConfig{}, seed ^ 0x9A5A),
      rng_(seed)
{
}

void
ParagonManager::seedOffline(const std::vector<Workload> &seeds, double t)
{
    classifier_.seedOffline(seeds, t);
}

void
ParagonManager::onSubmit(WorkloadId id, double t)
{
    const Workload &w = registry_.get(id);
    reservations_[id] =
        userReservation(w, cluster_.catalog(), model_, rng_);
    // Paragon profiles and classifies for heterogeneity and
    // interference only (its classification engine predates the
    // scale-up/scale-out extensions).
    profiling::ProfilingData data = profiler_.profile(w, t, rng_);
    estimates_[id] = classifier_.classify(w, data);
    if (!tryPlace(id, t))
        queue_.push_back(id);
}

bool
ParagonManager::tryPlace(WorkloadId id, double t)
{
    Workload &w = registry_.get(id);
    const Reservation &res = reservations_.at(id);
    const core::WorkloadEstimate &est = estimates_.at(id);

    // Rank servers: platform affinity x interference fit for the
    // newcomer, skipping servers whose residents would suffer.
    std::vector<std::pair<double, ServerId>> ranked;
    for (size_t i = 0; i < cluster_.size(); ++i) {
        const sim::Server &srv = cluster_.server(ServerId(i));
        if (srv.hosts(id))
            continue;
        if (!srv.canFit(res.cores_per_node, res.memory_per_node_gb,
                        w.storage_gb_per_node))
            continue;
        double q = est.platform_factor[srv.platformIndex()] *
                   est.interferenceMultiplier(
                       srv.contentionForNewcomer());
        // Residents must tolerate the newcomer's caused pressure.
        bool safe = true;
        const auto &cap = srv.platform().contention_capacity;
        for (const sim::TaskShare &task : srv.tasks()) {
            auto res_it = estimates_.find(task.workload);
            if (res_it == estimates_.end())
                continue;
            for (size_t s = 0; s < interference::kNumSources; ++s) {
                double added =
                    cap[s] > 0.0 ? est.caused_per_core[s] *
                                       res.cores_per_node / cap[s]
                                 : 0.0;
                double now = srv.contentionFor(task.workload)[s];
                if (now + added >
                    res_it->second.tolerated[s] + 0.15) {
                    safe = false;
                    break;
                }
            }
            if (!safe)
                break;
        }
        if (!safe)
            continue;
        ranked.emplace_back(q, ServerId(i));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });

    int placed = 0;
    for (const auto &[q, sid] : ranked) {
        if (placed >= res.nodes)
            break;
        sim::Server &srv = cluster_.server(sid);
        if (!srv.canFit(res.cores_per_node, res.memory_per_node_gb,
                        w.storage_gb_per_node))
            continue;
        sim::TaskShare share;
        share.workload = id;
        share.cores = res.cores_per_node;
        share.memory_gb = res.memory_per_node_gb;
        share.storage_gb = w.storage_gb_per_node;
        share.caused = w.causedPressure(t, res.cores_per_node);
        share.best_effort = w.best_effort;
        srv.place(share);
        ++placed;
    }
    if (placed == 0)
        return false;
    w.active_knobs = workload::FrameworkKnobs{}; // reservations: untuned
    w.last_progress_update = t;
    return true;
}

void
ParagonManager::onTick(double t)
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
ParagonManager::onCompletion(WorkloadId, double t)
{
    onTick(t);
}

void
ParagonManager::onServerDown(ServerId,
                             const std::vector<WorkloadId> &displaced,
                             double t)
{
    for (WorkloadId id : displaced) {
        const Workload &w = registry_.get(id);
        if (w.completed || w.killed)
            continue;
        auto it = reservations_.find(id);
        if (it == reservations_.end())
            continue;
        // Relaunch only the lost nodes: tryPlace places up to
        // res.nodes shares on servers not already hosting the
        // workload, so shrink the reservation to the missing count
        // for the duration of the call.
        int remaining = int(cluster_.serversHosting(id).size());
        int full = it->second.nodes;
        it->second.nodes = std::max(full - remaining, 1);
        bool placed = remaining >= full || tryPlace(id, t);
        it->second.nodes = full;
        if (!placed && remaining == 0 &&
            std::find(queue_.begin(), queue_.end(), id) == queue_.end())
            queue_.push_back(id);
    }
}

const core::WorkloadEstimate *
ParagonManager::estimateFor(WorkloadId id) const
{
    auto it = estimates_.find(id);
    return it == estimates_.end() ? nullptr : &it->second;
}

} // namespace quasar::baselines
