#include "baselines/paragon.hh"

#include <algorithm>

namespace quasar::baselines
{

using workload::Workload;

ParagonManager::ParagonManager(sim::Cluster &cluster,
                               workload::WorkloadRegistry &registry,
                               uint64_t seed,
                               tracegen::ReservationModel model)
    : ReservationManager(cluster, registry, seed, model,
                         workload::FrameworkKnobs{}),
      profiler_(cluster.catalog(), profiling::ProfilerConfig{}),
      classifier_(profiler_, core::ClassifierConfig{}, seed ^ 0x9A5A)
{
}

void
ParagonManager::seedOffline(const std::vector<Workload> &seeds, double t)
{
    classifier_.seedOffline(seeds, t);
}

Reservation
ParagonManager::sizeReservation(const Workload &w, double t)
{
    Reservation res = ReservationManager::sizeReservation(w, t);
    // Paragon profiles and classifies for heterogeneity and
    // interference only (its classification engine predates the
    // scale-up/scale-out extensions).
    profiling::ProfilingData data = profiler_.profile(w, t, rng_);
    estimates_[w.id] = classifier_.classify(w, data);
    return res;
}

bool
ParagonManager::placeNodes(Workload &w, double t,
                           const Reservation &res)
{
    const core::WorkloadEstimate &est = estimates_.at(w.id);

    // Rank servers: platform affinity x interference fit for the
    // newcomer, skipping servers whose residents would suffer.
    std::vector<std::pair<double, ServerId>> ranked;
    for (size_t i = 0; i < cluster_.size(); ++i) {
        const sim::Server &srv = cluster_.server(ServerId(i));
        if (srv.hosts(w.id))
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
        srv.place(nodeShare(w, t, res.cores_per_node,
                            res.memory_per_node_gb, w.best_effort));
        ++placed;
    }
    return placed > 0;
}

const core::WorkloadEstimate *
ParagonManager::estimateFor(WorkloadId id) const
{
    auto it = estimates_.find(id);
    return it == estimates_.end() ? nullptr : &it->second;
}

} // namespace quasar::baselines
