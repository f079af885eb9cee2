/**
 * @file
 * Workload submissions, the performance-target interface, the workload
 * registry, and the performance oracle.
 *
 * PerformanceTarget is the paper's user-facing API (Sec. 3.1): instead
 * of a resource reservation, a submission carries a throughput and/or
 * latency constraint whose form depends on workload type. The
 * PerfOracle computes the *true* performance of a workload given its
 * current placement in a cluster — managers never call it directly for
 * decisions; they see it filtered through noisy profiling and runtime
 * monitoring.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/cluster.hh"
#include "tracegen/load_pattern.hh"
#include "workload/truth.hh"

namespace quasar::workload
{

/** How a submission expresses its constraint (paper Sec. 3.1). */
enum class TargetKind
{
    CompletionTime, ///< distributed frameworks: execution time.
    QpsLatency,     ///< latency-critical: QPS target + latency QoS.
    Ips,            ///< single-node: instructions-per-second analog.
};

/** The performance constraint attached to a submission. */
struct PerformanceTarget
{
    TargetKind kind = TargetKind::Ips;
    /** Required completion time, seconds (CompletionTime). */
    double completion_time_s = 0.0;
    /** Required sustained throughput, QPS (QpsLatency). */
    double qps = 0.0;
    /** Tail-latency bound, seconds at p99 (QpsLatency). */
    double latency_qos_s = 0.0;
    /** Required work rate, units/s (CompletionTime and Ips). */
    double rate = 0.0;

    static PerformanceTarget completionTime(double seconds,
                                            double total_work);
    static PerformanceTarget qpsLatency(double qps, double qos_s);
    static PerformanceTarget ips(double rate);
};

/** One submitted workload plus its hidden truth and runtime state. */
struct Workload
{
    WorkloadId id = kInvalidWorkload;
    std::string name;
    WorkloadType type = WorkloadType::SingleNode;
    std::string framework; ///< "hadoop", "spark", "memcached", ...
    GroundTruth truth;
    PerformanceTarget target;

    /** Total work units (analytics / single-node). */
    double total_work = 0.0;
    double dataset_gb = 0.0;
    /** Resident state for stateful services. */
    double state_gb = 0.0;
    /** Storage demanded per node at placement time. */
    double storage_gb_per_node = 0.0;
    /** Offered traffic (latency-critical only). */
    tracegen::LoadPatternPtr load;
    bool best_effort = false;
    /**
     * Scheduling priority (Sec. 4.4): a placement may evict resident
     * tasks of strictly lower priority. Best-effort tasks behave as
     * priority INT_MIN regardless of this field.
     */
    int priority = 0;
    /**
     * Optional spending cap, $/hour across all servers charged to the
     * workload (Sec. 4.4 cost targets); <= 0 means unlimited.
     */
    double cost_cap_per_hour = 0.0;
    double arrival_time = 0.0;

    /** Framework knobs active in the current placement. */
    FrameworkKnobs active_knobs;

    /** @name Runtime state */
    /// @{
    double work_done = 0.0;
    double last_progress_update = 0.0;
    /** First time the workload held any resources (<0 = never);
     *  admission-queue wait is completion overhead, not performance
     *  (paper Sec. 6.5). */
    double first_placed_at = -1.0;
    bool completed = false;
    double completion_time = -1.0;
    bool killed = false;
    /**
     * Terminal overload-control outcome: dropped from the admission
     * queue by load shedding, never having reached the deadline-aware
     * retry budget. A shed workload is always also killed (and holds
     * no resources); the flag distinguishes accounted-shed arrivals
     * from churn departures in outcome accounting.
     */
    bool shed = false;
    /** @name Brownout (graceful degradation under overload) */
    /// @{
    /** Currently running in the reduced-allocation brownout mode. */
    bool brownout_active = false;
    /** Ever browned out (distinct "degraded" outcome accounting). */
    bool brownout_ever = false;
    /// @}
    /**
     * Transient degradation window (state migration for stateful
     * services, relaunch cost, ...): performance is multiplied by
     * degraded_factor until degraded_until.
     */
    double degraded_until = 0.0;
    double degraded_factor = 1.0;
    /// @}

    /** @name Optional phase change (Sec. 4.1) */
    /// @{
    double phase_change_time = -1.0; ///< <0 means no phase change.
    GroundTruth phase_truth;
    /// @}

    /** Ground truth in effect at time t. */
    const GroundTruth &truthAt(double t) const;

    /** Offered QPS at time t (0 for non-services). */
    double offeredQps(double t) const;

    /** Interference pressure caused when running with cores. */
    interference::IVector causedPressure(double t, double cores) const;
};

/** Owner of all submitted workloads, keyed by id. */
class WorkloadRegistry
{
  public:
    /** Register a workload; assigns and returns its id. */
    WorkloadId add(Workload w);

    bool contains(WorkloadId id) const;
    Workload &get(WorkloadId id);
    const Workload &get(WorkloadId id) const;

    size_t size() const { return items_.size(); }

    /**
     * Ids of workloads not yet completed or killed, ascending. Served
     * from a self-compacting candidate list: each call drops the
     * entries that finished since the last one, so a long churn run
     * pays O(active) per query instead of rescanning every workload
     * ever submitted.
     */
    std::vector<WorkloadId> active() const;

    /** All ids in submission order. */
    std::vector<WorkloadId> all() const;

  private:
    std::vector<std::unique_ptr<Workload>> items_;
    /** Superset of the active ids, compacted on read (see active()). */
    mutable std::vector<WorkloadId> active_candidates_;
};

/**
 * Computes true performance from the cluster's current placement.
 * Decision-making components must consume it only through profiling
 * and monitoring wrappers that add measurement noise.
 *
 * currentRate is memoized per workload id (DESIGN.md §9). Besides the
 * workload's immutable truth, a rate reads only server state — which
 * servers host w, their shares, contention and speed — and four
 * values: t, active_knobs, degraded_until and degraded_factor. Every
 * write to that server state bumps the cluster's ChangeJournal (the
 * mutation-journaling lint and its death tests enforce it), so
 * journal().end() plus those four values, compared bitwise, is a
 * sound validity stamp: a hit returns exactly the double a
 * recomputation would.
 */
class PerfOracle
{
  public:
    PerfOracle(const sim::Cluster &cluster,
               const WorkloadRegistry &registry)
        : cluster_(cluster), registry_(registry) {}

    /**
     * True aggregate work rate of w with its current placement and
     * co-runners at time t (work units/s).
     */
    double currentRate(const Workload &w, double t) const;

    /** Service capacity in QPS under the current placement. */
    double serviceCapacityQps(const Workload &w, double t) const;

    /** p99 latency at the offered load of time t. */
    double serviceP99(const Workload &w, double t) const;

    /**
     * Performance normalized to the target at time t: rate/target for
     * batch, (QPS delivered within QoS)/offered for services. 1.0
     * means the constraint is exactly met; above 1 means headroom.
     */
    double normalizedPerformance(const Workload &w, double t) const;

    /**
     * Cores the workload actually exercises on srv, the server that
     * holds share (for utilization accounting): limited by its useful
     * parallelism, and scaled by load for services.
     */
    double usedCores(const Workload &w, const sim::Server &srv,
                     const sim::TaskShare &share, double t) const;

#ifdef QUASAR_VERIFY
    /** Memo hits recomputed and bitwise-checked (process-wide). */
    static uint64_t memoChecks();
#endif

  private:
    /** One workload's last rate and the stamp it is valid for. */
    struct RateMemo
    {
        uint64_t journal_end = kNever;
        double t = 0.0;
        double degraded_until = 0.0;
        double degraded_factor = 0.0;
        FrameworkKnobs knobs;
        double rate = 0.0;

        /** journal_end of an empty slot: no journal reaches it. */
        static constexpr uint64_t kNever = ~uint64_t{0};
    };

    double computeRate(const Workload &w, double t) const;
    bool memoValid(const RateMemo &m, const Workload &w, double t,
                   uint64_t journal_end) const;

    const sim::Cluster &cluster_;
    const WorkloadRegistry &registry_;
    /** Indexed by workload id; grown on first use. */
    mutable std::vector<RateMemo> memo_;
};

} // namespace quasar::workload

