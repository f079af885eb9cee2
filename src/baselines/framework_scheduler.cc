#include "baselines/framework_scheduler.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace quasar::baselines
{

using workload::Workload;

workload::FrameworkKnobs
hadoopDefaultKnobs()
{
    workload::FrameworkKnobs k;
    k.mappers_per_node = 8;
    k.heap_gb = 1.0;
    k.block_mb = 64;
    k.compression = workload::Compression::Lzo;
    k.replication = 2;
    return k;
}

Reservation
frameworkReservation(const Workload &w)
{
    assert(w.type == workload::WorkloadType::Analytics);
    workload::FrameworkKnobs k = hadoopDefaultKnobs();
    Reservation res;
    // One core per mapper slot; memory sized for the mapper heaps.
    res.cores_per_node = k.mappers_per_node;
    res.memory_per_node_gb = k.mappers_per_node * k.heap_gb;
    // Node count grows with dataset size (split-count heuristic).
    res.nodes = std::clamp(
        int(std::lround(std::ceil(w.dataset_gb / 15.0))), 2, 12);
    return res;
}

FrameworkSelfManager::FrameworkSelfManager(
    sim::Cluster &cluster, workload::WorkloadRegistry &registry,
    uint64_t seed)
    : ReservationManager(cluster, registry, seed,
                         tracegen::ReservationModel{}, hadoopDefaultKnobs())
{
}

Reservation
FrameworkSelfManager::sizeReservation(const Workload &w, double t)
{
    if (w.type == workload::WorkloadType::Analytics)
        return frameworkReservation(w);
    return ReservationManager::sizeReservation(w, t);
}

} // namespace quasar::baselines
