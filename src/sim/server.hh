/**
 * @file
 * A single server: cgroup-style resource accounting for resident
 * tasks, plus the contention ledger that turns co-location into the
 * interference vectors workloads experience.
 */

#pragma once

#include <array>
#include <vector>

#include "common/types.hh"
#include "interference/source.hh"
#include "sim/change_journal.hh"
#include "sim/platform.hh"

namespace quasar::sim
{

/**
 * Machine health (Sec. 4.4 fault tolerance). Up runs at full speed;
 * Degraded keeps running at a reduced speed factor (a sick node:
 * failing disk, thermal throttling); Down hosts nothing and accepts
 * no placements until recovery.
 */
enum class ServerState
{
    Up,
    Degraded,
    Down,
};

/**
 * Observer of task-membership changes (which workloads live on which
 * servers). place()/remove()/markDown() are the only membership
 * mutators, so a listener attached to every server sees the complete
 * edit stream — the Cluster's HostingIndex uses it to answer
 * serversHosting() in O(log n) instead of an O(servers) scan.
 */
class MembershipListener
{
  public:
    virtual ~MembershipListener() = default;
    virtual void taskPlaced(ServerId sid, WorkloadId w) = 0;
    virtual void taskRemoved(ServerId sid, WorkloadId w) = 0;
};

/** Resources granted to one workload on one server. */
struct TaskShare
{
    WorkloadId workload = kInvalidWorkload;
    int cores = 0;
    double memory_gb = 0.0;
    double storage_gb = 0.0;
    /** Pressure this task puts on each shared resource (absolute). */
    interference::IVector caused{};
    /** Measured core usage (may be below the allocation). */
    double cores_used = 0.0;
    /** True for best-effort (evictable, low-priority) placements. */
    bool best_effort = false;
    /**
     * Per-source isolation mask (Sec. 4.4 resource partitioning, e.g.
     * cache ways or NIC rate limits): on an isolated source the task
     * neither suffers nor causes contention, at a small capacity cost
     * charged by the performance model.
     */
    interference::IVector isolation{};
    /**
     * Home socket of the share (DESIGN.md §13): its caused pressure
     * lands here at full strength and is seen cross-socket attenuated.
     * Always 0 on a flat (single-socket) platform.
     */
    int socket = 0;
};

/** One machine in the cluster. */
class Server
{
  public:
    /**
     * @param platform_index position of `platform` in the owning
     *        cluster's catalog (0 for a standalone server).
     */
    Server(ServerId id, const Platform &platform, int fault_zone = 0,
           size_t platform_index = 0);

    ServerId id() const { return id_; }
    const Platform &platform() const { return platform_; }
    /** Catalog index of the platform: the column of the estimates'
     *  per-platform tables (fixed for the server's lifetime). */
    size_t platformIndex() const { return platform_index_; }
    /** Failure-domain id (rack/PDU); Sec. 4.4 fault zones. */
    int faultZone() const { return fault_zone_; }

    /**
     * Change epoch: bumped by every mutation that affects placement
     * decisions (shares, health, injected pressure, isolation) — the
     * scheduler's per-server index revalidates against it instead of
     * re-walking the contention ledger on every placement. Usage
     * updates (setUsage) do not bump it: measured core usage feeds
     * only utilization reporting, never placement.
     */
    uint64_t version() const { return version_; }

    /**
     * Attach the cluster's change journal: every version bump is also
     * logged there so index readers can find dirty servers in
     * O(changes). The journal must outlive the server (the owning
     * Cluster guarantees this).
     */
    void attachJournal(ChangeJournal *journal) { journal_ = journal; }

    /**
     * Attach a task-membership observer (see MembershipListener). The
     * listener must outlive the server (the owning Cluster holds its
     * index behind a stable pointer, like the journal).
     */
    void attachMembership(MembershipListener *listener)
    {
        membership_ = listener;
    }

    /** @name Health */
    /// @{
    ServerState state() const { return state_; }
    /** True unless the server is down (degraded still serves). */
    bool available() const { return state_ != ServerState::Down; }
    /** Execution-speed multiplier: 1 up, (0,1) degraded, 0 down. */
    double speedFactor() const
    {
        return state_ == ServerState::Down ? 0.0 : speed_factor_;
    }
    /**
     * Crash the machine: every resident share is dropped and returned
     * so the caller can notify the manager of the displaced workloads.
     * Idempotent (a second crash returns nothing).
     */
    std::vector<TaskShare> markDown();
    /**
     * Enter the degraded state at the given speed factor, clamped
     * into [0, 1): 0 is a fully stalled (but not crashed) machine
     * whose resident tasks make no progress. False when down.
     */
    bool degrade(double speed_factor);
    /** Return to full-speed service (empty after a crash). */
    void recover();
    /**
     * Debug invariant check: allocations within platform capacity, no
     * duplicate workload shares, down implies empty, usage within
     * allocation. Chaos tests call this after every step.
     */
    bool checkInvariants() const;
    /// @}

    /** @name Placement */
    /// @{
    bool canFit(int cores, double memory_gb, double storage_gb) const;
    void place(const TaskShare &share);
    /** Remove a workload's share; false when not hosted here. */
    bool remove(WorkloadId w);
    bool hosts(WorkloadId w) const;
    /** Resize an existing share; false when not hosted here. */
    bool resize(WorkloadId w, int cores, double memory_gb);
    const TaskShare *share(WorkloadId w) const;
    const std::vector<TaskShare> &tasks() const { return tasks_; }
    /// @}

    /** @name Capacity */
    /// @{
    int coresAllocated() const;
    int coresFree() const { return platform_.cores - coresAllocated(); }
    double memoryAllocated() const;
    double memoryFree() const
    {
        return platform_.memory_gb - memoryAllocated();
    }
    double storageAllocated() const;
    double storageFree() const
    {
        return platform_.storage_gb - storageAllocated();
    }
    /// @}

    /** @name Interference */
    /// @{
    /**
     * Normalized contention seen by workload w at its home socket:
     * co-runners' caused pressure (full strength same-socket,
     * attenuated cross-socket) plus any injected pressure, excluding
     * w's own contribution, over the socket's capacity. On a flat
     * platform this is bit-identical to the pre-topology flat view.
     */
    interference::IVector contentionFor(WorkloadId w) const;

    /** Contention a prospective task would see on socket 0. */
    interference::IVector contentionForNewcomer() const;

    /** Contention a prospective task would see on a given socket. */
    interference::IVector contentionForNewcomerAt(int socket) const;

    /**
     * Inject raw pressure homed on a socket (microbenchmark probes);
     * intensity is normalized, i.e. scaled by the socket's capacity
     * internally (== platform capacity on a flat machine).
     */
    void injectPressureAt(int socket,
                          const interference::IVector &normalized);
    void clearInjectedPressure();

    /**
     * Grant or revoke a private partition of one shared resource to a
     * resident workload; false when not hosted here.
     */
    bool setIsolation(WorkloadId w, interference::Source source,
                      bool isolated);
    /// @}

    /** @name Topology (DESIGN.md §13) */
    /// @{
    int numSockets() const { return num_sockets_; }
    /** Per-socket slice of the platform's contention capacity. */
    const interference::IVector &socketCapacity(int socket) const
    {
        return socket_caps_[size_t(socket)];
    }
    /** Per-source cross-socket attenuation factors. */
    const interference::IVector &crossSocketFactor() const
    {
        return cross_;
    }
    /**
     * One ordered ledger walk producing every per-socket newcomer
     * view plus homed core counts — the scheduler's refresh unit.
     * contention[0] is bitwise-equal to contentionForNewcomer().
     */
    struct SocketSnapshot
    {
        int sockets = 1;
        std::array<interference::IVector, topology::kMaxSockets>
            contention{};
        std::array<int, topology::kMaxSockets> cores_homed{};
    };
    SocketSnapshot socketSnapshot() const;

    /** Raw pressure homed on one socket: its injected pressure plus
     *  the unisolated caused pressure of every share homed there. */
    interference::IVector freshSocketPressure(int socket) const;
    /** Fresh flat raw-pressure ledger (sum over sockets). */
    interference::IVector rawPressure() const;
    /// @}

    /** @name Measured usage (for utilization reporting) */
    /// @{
    /** Record measured core usage of a resident workload. */
    bool setUsage(WorkloadId w, double cores_used);
    /** Sum of measured usage / total cores, in [0, 1]. */
    double cpuUtilization() const;
    /** Allocated cores / total cores (the reservation view). */
    double cpuReservedFraction() const;
    /// @}

  private:
    TaskShare *findShare(WorkloadId w);
    interference::IVector rawPressureExcluding(WorkloadId w) const;

    /**
     * Per-socket local raw pressure in ledger order (injected first,
     * then every share homed where it sits), excluding w. The single
     * sequence of floating-point adds all contention reads share, so
     * the flat (single-socket) case reproduces the pre-topology
     * arithmetic bit for bit.
     */
    void localPressureExcluding(
        WorkloadId w,
        std::array<interference::IVector, topology::kMaxSockets>
            &local) const;

    /** Raw pressure visible from one socket: local plus attenuated
     *  remote contributions. */
    interference::IVector viewFromLocal(
        const std::array<interference::IVector,
                         topology::kMaxSockets> &local,
        int socket) const;

    /** Normalize a raw view by the socket capacity, zeroing sources
     *  the (optional) reading share holds an isolation grant on. */
    interference::IVector normalizeAt(const interference::IVector &raw,
                                      int socket,
                                      const TaskShare *self) const;

    /** Note a placement-relevant mutation (see version()). */
    void bumpVersion()
    {
        ++version_;
        if (journal_)
            journal_->note(id_);
    }

    ServerId id_;
    Platform platform_;
    size_t platform_index_ = 0;
    int fault_zone_ = 0;
    ServerState state_ = ServerState::Up;
    double speed_factor_ = 1.0;
    uint64_t version_ = 0;
    ChangeJournal *journal_ = nullptr;
    MembershipListener *membership_ = nullptr;
    std::vector<TaskShare> tasks_;
    /** Injected pressure by home socket ([0] on flat machines). */
    std::array<interference::IVector, topology::kMaxSockets>
        injected_{};
    /** @name Topology state (fixed at construction) */
    /// @{
    int num_sockets_ = 1;
    std::array<interference::IVector, topology::kMaxSockets>
        socket_caps_{};
    interference::IVector cross_{};
    /// @}
};

} // namespace quasar::sim

