#include "sim/cluster.hh"

#include <algorithm>
#include <cassert>

namespace quasar::sim
{

Cluster::Cluster(const std::vector<Platform> &catalog,
                 const std::vector<int> &counts, int num_fault_zones)
    : catalog_(catalog),
      num_fault_zones_(std::max(num_fault_zones, 1))
{
    assert(catalog.size() == counts.size());
    ServerId next = 0;
    for (size_t i = 0; i < catalog.size(); ++i) {
        for (int k = 0; k < counts[i]; ++k) {
            int zone = int(next) % num_fault_zones_;
            servers_.push_back(
                std::make_unique<Server>(next++, catalog[i], zone, i));
            total_cores_ += catalog[i].cores;
            total_memory_ += catalog[i].memory_gb;
            total_storage_ += catalog[i].storage_gb;
        }
    }
    // Retain enough journal history that a scheduler running one
    // decision behind a burst touching every server still replays
    // incrementally instead of falling back to a full scan.
    journal_ = std::make_unique<ChangeJournal>(
        std::max<size_t>(4096, 8 * servers_.size()));
    // Both live behind stable pointers so moving the Cluster does not
    // invalidate the servers' attachments.
    hosting_ = std::make_unique<HostingIndex>();
    for (auto &srv : servers_) {
        srv->attachJournal(journal_.get());
        srv->attachMembership(hosting_.get());
    }
}

Cluster
Cluster::localCluster()
{
    auto catalog = localPlatforms();
    std::vector<int> counts(catalog.size(), 4);
    return Cluster(catalog, counts);
}

Cluster
Cluster::ec2Cluster()
{
    auto catalog = ec2Platforms();
    // 200 dedicated servers over 14 instance types, weighted toward
    // the larger instances (the paper's scenario keeps ~1000 cores
    // almost fully used at steady state).
    std::vector<int> counts = {6, 6, 8, 14, 6, 8, 16, 30,
                               8, 30, 8, 16, 30, 14};
    assert(counts.size() == catalog.size());
    return Cluster(catalog, counts);
}

std::vector<ServerId>
Cluster::serversOfPlatform(const std::string &name) const
{
    std::vector<ServerId> out;
    for (size_t i = 0; i < servers_.size(); ++i)
        if (servers_[i]->platform().name == name)
            out.push_back(ServerId(i));
    return out;
}

std::vector<ServerId>
Cluster::serversHosting(WorkloadId w) const
{
    return hosting_->serversOf(w);
}

size_t
Cluster::aliveServerCount() const
{
    size_t n = 0;
    for (const auto &s : servers_)
        if (s->available())
            ++n;
    return n;
}

int
Cluster::aliveCores() const
{
    int n = 0;
    for (const auto &s : servers_)
        if (s->available())
            n += s->platform().cores;
    return n;
}

std::vector<ServerId>
Cluster::serversInZone(int zone) const
{
    std::vector<ServerId> out;
    for (size_t i = 0; i < servers_.size(); ++i)
        if (servers_[i]->faultZone() == zone)
            out.push_back(ServerId(i));
    return out;
}

std::vector<ServerId>
Cluster::downServers() const
{
    std::vector<ServerId> out;
    for (size_t i = 0; i < servers_.size(); ++i)
        if (!servers_[i]->available())
            out.push_back(ServerId(i));
    return out;
}

size_t
Cluster::removeEverywhere(WorkloadId w)
{
    // Copy: each remove() edits the index entry we are walking.
    std::vector<ServerId> hosting = hosting_->serversOf(w);
    size_t n = 0;
    for (ServerId sid : hosting)
        if (servers_[sid]->remove(w))
            ++n;
    return n;
}

ClusterSnapshot
Cluster::snapshot() const
{
    ClusterSnapshot snap;
    double used_cores = 0.0;
    double reserved_cores = 0.0;
    double used_mem = 0.0;
    double used_storage = 0.0;
    for (const auto &s : servers_) {
        used_cores += s->cpuUtilization() * s->platform().cores;
        reserved_cores += s->coresAllocated();
        used_mem += s->memoryAllocated();
        used_storage += s->storageAllocated();
    }
    if (total_cores_ > 0) {
        snap.cpu_used = used_cores / double(total_cores_);
        snap.cpu_reserved = reserved_cores / double(total_cores_);
    }
    if (total_memory_ > 0.0)
        snap.mem_used = used_mem / total_memory_;
    if (total_storage_ > 0.0)
        snap.storage_used = used_storage / total_storage_;
    return snap;
}

} // namespace quasar::sim
