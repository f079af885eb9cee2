/**
 * @file
 * A cluster: the set of servers a manager schedules onto, with
 * aggregate capacity/utilization queries and builders for the paper's
 * two testbeds (40-server local cluster, 200-server EC2 cluster).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/change_journal.hh"
#include "sim/hosting_index.hh"
#include "sim/platform.hh"
#include "sim/server.hh"

namespace quasar::sim
{

/** Aggregate point-in-time utilization snapshot. */
struct ClusterSnapshot
{
    double cpu_used = 0.0;      ///< fraction of total cores in use.
    double cpu_reserved = 0.0;  ///< fraction of total cores allocated.
    double mem_used = 0.0;      ///< fraction of total memory allocated.
    double storage_used = 0.0;  ///< fraction of total storage allocated.
};

/** The set of machines under management. */
class Cluster
{
  public:
    /**
     * Build with counts[i] servers of catalog[i] (each records i as
     * its Server::platformIndex()); servers are dealt round-robin
     * across num_fault_zones failure domains.
     */
    Cluster(const std::vector<Platform> &catalog,
            const std::vector<int> &counts, int num_fault_zones = 4);

    int numFaultZones() const { return num_fault_zones_; }

    /**
     * The paper's local testbed: 40 servers, 4 of each of the ten
     * Table 1 platforms A-J.
     */
    static Cluster localCluster();

    /**
     * The paper's EC2 testbed: 200 dedicated servers spread over the
     * 14 instance types (14 or 15 of each).
     */
    static Cluster ec2Cluster();

    size_t size() const { return servers_.size(); }
    Server &server(ServerId i) { return *servers_[i]; }
    const Server &server(ServerId i) const { return *servers_[i]; }

    const std::vector<Platform> &catalog() const { return catalog_; }

    /** Indices of servers with the given platform name. */
    std::vector<ServerId> serversOfPlatform(const std::string &name) const;

    /**
     * The servers currently hosting w, ascending. Answered from the
     * incrementally-maintained hosting index — O(log active
     * workloads), not an O(servers) scan.
     */
    std::vector<ServerId> serversHosting(WorkloadId w) const;

    /**
     * Servers with at least one resident task, ascending. The driver
     * tick sweeps this instead of every machine, so a mostly-idle
     * 10k-server cluster ticks at the cost of its busy subset.
     */
    const std::vector<ServerId> &busyServers() const
    {
        return hosting_->busyServers();
    }

    /** The maintained reverse index (verify sweeps cross-check it). */
    const HostingIndex &hostingIndex() const { return *hosting_; }

    /** @name Alive capacity (fault tolerance) */
    /// @{
    /** Servers not currently down. */
    size_t aliveServerCount() const;
    /** Cores on servers that are not down. */
    int aliveCores() const;
    /** Ids of servers in the given fault zone. */
    std::vector<ServerId> serversInZone(int zone) const;
    /** Ids of currently-down servers. */
    std::vector<ServerId> downServers() const;
    /// @}

    /** Remove w from every server; count of shares removed. */
    size_t removeEverywhere(WorkloadId w);

    /**
     * The cluster-wide change journal every server's version bumps
     * append to; dirty-set index readers keep a cursor into it. Held
     * behind a stable pointer so moving the Cluster does not
     * invalidate the servers' attachment.
     */
    const ChangeJournal &journal() const { return *journal_; }

    int totalCores() const { return total_cores_; }
    double totalMemoryGb() const { return total_memory_; }
    double totalStorageGb() const { return total_storage_; }

    ClusterSnapshot snapshot() const;

  private:
    std::vector<Platform> catalog_;
    std::unique_ptr<ChangeJournal> journal_;
    std::unique_ptr<HostingIndex> hosting_;
    std::vector<std::unique_ptr<Server>> servers_;
    int num_fault_zones_ = 1;
    int total_cores_ = 0;
    double total_memory_ = 0.0;
    double total_storage_ = 0.0;
};

} // namespace quasar::sim

