/**
 * @file
 * Greedy joint resource allocation and assignment (paper Sec. 3.3).
 *
 * Using the classification output, the scheduler ranks available
 * servers by resource quality (platform speedup x predicted
 * interference multiplier), then sizes the allocation against the
 * performance target: per-node resources first (scale-up), then more
 * nodes (scale-out), taking the highest-quality servers first so the
 * least total resources are used. Interference awareness is two-sided:
 * the candidate must tolerate the server's current contention, and the
 * server's residents must tolerate the candidate's caused pressure.
 * Best-effort residents may be marked for eviction to make room for
 * primary workloads.
 *
 * One per-candidate test: nodeVerdict() holds the checks the walk
 * applies to every candidate (fit, knob, residents' tolerance, knee,
 * evictions, cost), and firstNodeVerdict() — the admission failure
 * memo's proof — calls the same function with no node chosen yet.
 *
 * One candidate loop: allocate() walks the servers a CandidateOrder
 * (core/candidate_order.hh) drains for it, best quality first —
 * begin, next, nodeVerdict, drop the candidate's bucket on an Unfit or
 * Knob reject, settle the drops on a take — and every state reader
 * takes the source's server view. The constructor picks the source
 * once from SchedulerConfig::full_rescan: the maintained order
 * (journal-replayed per-server index plus a bucketed incremental
 * order, production) or the sorted full scan (fresh views, eager
 * sort, no drop; the tests-only oracle). Both emit the same sequence,
 * so both pick bit-identical placements.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/candidate_order.hh"
#include "core/estimate.hh"
#include "sim/cluster.hh"
#include "stats/timing.hh"
#include "workload/workload.hh"

namespace quasar::core
{

/** One node of an allocation decision. */
struct AllocationNode
{
    ServerId server = 0;
    size_t scale_up_col = 0; ///< column in the estimate's grid.
    int cores = 0;
    double memory_gb = 0.0;
    double predicted_node_perf = 0.0;
    /** Home socket of the node's share (DESIGN.md §13); always 0 on
     *  flat platforms, part of the replay contract otherwise. */
    int socket = 0;
};

/** A complete allocation + assignment decision. */
struct Allocation
{
    std::vector<AllocationNode> nodes;
    workload::FrameworkKnobs knobs;
    double predicted_perf = 0.0;
    /** Best-effort tasks that must be evicted first. */
    std::vector<std::pair<ServerId, WorkloadId>> evictions;
    /** True when the target could not be fully met with free capacity. */
    bool degraded = false;

    int totalCores() const;
    double totalMemoryGb() const;
};

/** Scheduler policy knobs (ablations flagged in DESIGN.md). */
struct SchedulerConfig
{
    /** Pack per-node resources before adding nodes (paper default). */
    bool scale_up_first = true;
    /** Multiplier on the target so small estimate errors don't miss. */
    double headroom = 1.1;
    /** Assumed degradation slope beyond tolerated thresholds. */
    double slope_guess = 1.5;
    /**
     * Stop adding nodes when a node's marginal contribution to the
     * job drops below this fraction of its standalone performance —
     * beyond the scale-out knee extra servers are wasted even if the
     * target is unmet ("least amount of resources", Sec. 3.3).
     */
    double min_marginal_efficiency = 0.40;
    /** Refuse placements predicted to lose residents more than this. */
    double max_resident_loss = 0.10;
    /**
     * The candidate source (core/candidate_order.hh). false (the
     * default) is the maintained order: the per-server index is
     * refreshed by replaying the cluster's change journal and
     * candidates drain from the bucketed incremental order. true is
     * the sorted full scan: fresh server views and a full re-sort on
     * each placement. Tests-only: the shadow oracle of the
     * QUASAR_VERIFY layer and the equivalence tests set it (and must
     * keep picking identical placements); benches and production
     * configs must not.
     */
    bool full_rescan = false;
    /**
     * Socket selection on multi-socket servers (DESIGN.md §13): pick
     * the socket with the best predicted interference multiplier for
     * the newcomer (ties: fewer homed cores, then lower id), spreading
     * cache-hungry workloads across LLC domains and packing compatible
     * ones. false falls back to topology-blind least-loaded homing
     * (fewest homed cores) — the ablation leg of bench/topology. Both
     * settings are identical on flat platforms (socket 0 always).
     */
    bool socket_aware = true;
};

/** Why the greedy walk passes over a candidate server. */
enum class NodeReject : uint8_t
{
    None = 0,   ///< not rejected: the server takes the node.
    Closed,     ///< rank-time filter: down, or no free/evictable core.
    Hosted,     ///< already hosts w, or chosen earlier in this call.
    Zone,       ///< fault-zone spreading: zone used (first pass).
    Unfit,      ///< no grid column fits the free capacity/storage.
    Knob,       ///< no column of the job's knob setting at that size.
    Intolerant, ///< residents would lose more than max_resident_loss.
    Knee,       ///< marginal gain below the scale-out knee; stops.
    Evict,      ///< evictions cannot free the picked size.
    Cost,       ///< the node would exceed the cost cap.
    Count
};

/**
 * Candidate accounting of the greedy walk since construction:
 * candidates drawn from the ranking, nodes taken, and a histogram of
 * why the rest were passed over (indexed by NodeReject; the drain
 * never emits Closed servers, so that bucket stays 0 here). Servers
 * passed over by a bucket drop are never drawn: they count in
 * `skipped` only, so candidates + skipped is what a walk without the
 * drop (full_rescan) draws.
 */
struct WalkCounts
{
    uint64_t candidates = 0;
    uint64_t nodes = 0;
    std::array<uint64_t, size_t(NodeReject::Count)> rejected{};
    /** Servers a bucket drop passed over without drawing them. */
    uint64_t skipped = 0;

    uint64_t operator[](NodeReject r) const
    {
        return rejected[size_t(r)];
    }
};

/** Wall-clock timing of the scheduler's decision phases. */
struct SchedulerTiming
{
    /** Candidate scoring + ranking (index refresh included). */
    stats::TimerStat rank;
    /** The greedy walk: node sizing, checks, eviction planning. */
    stats::TimerStat place;
};

/** The empty table: a scheduler built on it has no resident's
 *  estimate to check a newcomer against. */
const EstimateTable &noEstimates();

/** The greedy joint allocator/assigner. */
class GreedyScheduler
{
  public:
    /**
     * @param registry optional: when provided, placements may evict
     *        residents of strictly lower priority (Sec. 4.4), not just
     *        best-effort tasks.
     * @param estimates residents' classifications, read at decision
     *        time by the residents' check; a resident without an entry
     *        is not protected. Must outlive the scheduler.
     */
    GreedyScheduler(const sim::Cluster &cluster, SchedulerConfig cfg = {},
                    const workload::WorkloadRegistry *registry = nullptr,
                    const EstimateTable &estimates = noEstimates())
        : cluster_(cluster), cfg_(cfg), registry_(registry),
          estimates_(estimates),
          order_(CandidateOrder::make(cfg.full_rescan, cluster, registry,
                                      cfg.slope_guess))
    {
    }

    /**
     * Find an allocation meeting required_perf (absolute units
     * matching the estimate: rate for batch, capacity QPS for
     * services).
     *
     * @param w the workload being placed.
     * @param est its classification output.
     * @param required_perf performance the allocation must reach.
     * @param may_evict allow evicting best-effort residents.
     * @param spread spread the nodes across fault zones (Sec. 4.4):
     *        first walk only servers in zones the allocation does not
     *        use yet, then relax if the target is still unmet.
     * @return nullopt when nothing at all can be placed; otherwise an
     *         allocation, possibly flagged degraded.
     */
    std::optional<Allocation>
    allocate(const workload::Workload &w, const WorkloadEstimate &est,
             double required_perf, bool may_evict,
             bool spread = false) const;

    /**
     * Whether srv would take w's first node right now, and if not,
     * why: the rank-time feasibility filter and the hosting check,
     * then the very nodeVerdict() the walk applies to every candidate,
     * with no node chosen yet (no knob filter, nothing spent). It
     * reads only srv's own state, so allocate() returns
     * nullopt iff no server answers None, and a single-node
     * allocation lands on the best-ranked server that does — the two
     * facts the admission failure memo (core/failure_memo.hh) proves
     * retries futile with.
     */
    NodeReject firstNodeVerdict(const sim::Server &srv,
                                const workload::Workload &w,
                                const WorkloadEstimate &est,
                                double required_perf,
                                bool may_evict) const;

    /**
     * True when a first-node rejection for this reason also holds at
     * every larger required_perf (srv unchanged). A larger requirement
     * only grows the picked core count; the filter, hosting and fit
     * tests ignore it, and residents' loss and cost only grow with
     * cores. Eviction planning is the exception: the pick may trade
     * memory for cores, so a larger requirement can need less memory.
     */
    static bool holdsAtLargerRequirement(NodeReject r)
    {
        return r != NodeReject::None && r != NodeReject::Evict;
    }

    /**
     * Server quality score used for ranking (platform factor x
     * predicted interference multiplier x speed factor).
     */
    double serverQuality(const sim::Server &srv,
                         const WorkloadEstimate &est) const;

    const SchedulerConfig &config() const { return cfg_; }
    const sim::Cluster &cluster() const { return cluster_; }
    const workload::WorkloadRegistry *registry() const { return registry_; }
    const EstimateTable &estimates() const { return estimates_; }

    /** Decision-phase wall-clock timing since construction. */
    const SchedulerTiming &timing() const { return timing_; }

    /** Candidate accounting of every allocate since construction. */
    const WalkCounts &walkCounts() const { return walk_; }

    /**
     * The complete candidate order this scheduler would walk for the
     * given estimate: one drain of the candidate source — every
     * server the filter admits (all of them by default) as (quality,
     * id), best first, ties broken by ascending id. Diagnostic/test
     * surface (the property suite compares the maintained order's
     * drain against the sorted full scan's after every mutation) —
     * O(N log N), not a decision-path call.
     */
    std::vector<Candidate>
    rankedCandidates(const WorkloadEstimate &est,
                     const CandidateFilter &filter =
                         CandidateFilter::everything()) const;

#ifdef QUASAR_VERIFY
    /**
     * Run the index/order coherence audit immediately, bypassing the
     * per-refresh sampling — lets tests prove deterministically that a
     * mutation which skipped the journal (or bumpVersion()) aborts.
     */
    void auditIndexCoherenceNow() const { order_->auditIndexCoherence(); }
#endif

  private:
    struct NodePick
    {
        size_t col = 0;
        int cores = 0;
        double memory_gb = 0.0;
        double perf = 0.0;
        int socket = 0;
        /** Interference multiplier on the picked socket x speed
         *  factor: the per-column perf is nodePerf x interf. */
        double interf = 0.0;
        bool valid = false;
    };

    /** The walk's state between taken nodes: all a candidate's
     *  verdict depends on besides the server and the call's inputs. */
    struct WalkState
    {
        /** required_perf x headroom. */
        double target = 0.0;
        /** Predicted perf of each node taken so far. */
        std::vector<double> node_perfs;
        /** The job's knob setting, once its first node fixed it. */
        const workload::FrameworkKnobs *knob_filter = nullptr;
        /** Hourly cost of the nodes taken so far. */
        double cost = 0.0;
    };

    /** The walk itself (allocate() wraps it so the verify build can
     *  shadow-check each decision on the way out). */
    std::optional<Allocation>
    allocateImpl(const workload::Workload &w,
                 const WorkloadEstimate &est, double required_perf,
                 bool may_evict, bool spread) const;

    /**
     * Best per-node configuration on a server given free resources
     * (optionally counting evictable best-effort shares as free).
     */
    NodePick pickNodeConfig(const sim::Server &srv,
                            const ServerCacheEntry &e,
                            const workload::Workload &w,
                            const WorkloadEstimate &est,
                            bool count_evictable,
                            double perf_needed) const;

    /**
     * Check that placing `cores` of w on srv (homed on `socket`) does
     * not push residents beyond their tolerated contention: each
     * resident sees the newcomer's caused pressure at full strength on
     * its own socket and cross-socket attenuated otherwise. Returns
     * false on violation.
     */
    bool residentsTolerate(const sim::Server &srv,
                           const WorkloadEstimate &est, double cores,
                           int socket) const;

    /** True when victim may be evicted to make room for w. */
    bool evictable(const sim::TaskShare &victim,
                   const workload::Workload &w) const;

    /**
     * Per-node perf a candidate must supply to close the gap to
     * target when it joins the nodes already chosen (perfs given).
     */
    static double nodeNeed(const WorkloadEstimate &est, double target,
                           const std::vector<double> &node_perfs);

    /**
     * When the raw free capacity cannot hold the pick, plan evictions
     * (best-effort first, then ascending priority, larger shares
     * first) into `planned`. False when even that does not fit.
     */
    bool planEvictions(const sim::Server &srv, const ServerCacheEntry &e,
                       const workload::Workload &w, const NodePick &pick,
                       bool may_evict,
                       std::vector<std::pair<ServerId, WorkloadId>>
                           &planned) const;

    /**
     * The greedy walk's per-candidate test (Sec. 3.3), in order: fit a
     * scale-up pick (Unfit), hold the job's knob setting (Knob),
     * residents' tolerance (Intolerant), the scale-out knee (Knee),
     * eviction planning (Evict), the cost cap (Cost). Returns the
     * first failing check, or None with the node in `pick` and its
     * evictions in `planned`. e is the source's view of srv. The walk
     * and firstNodeVerdict both call it, so the failure memo's proof
     * applies the walk's own test.
     */
    NodeReject nodeVerdict(const sim::Server &srv,
                           const ServerCacheEntry &e,
                           const workload::Workload &w,
                           const WorkloadEstimate &est, WalkState &so_far,
                           bool may_evict, NodePick &pick,
                           std::vector<std::pair<ServerId, WorkloadId>>
                               &planned) const;

    /** Hourly cost of the pick's cores on srv (Sec. 4.4 cost cap). */
    static double nodeCost(const sim::Server &srv, const NodePick &pick);

    const sim::Cluster &cluster_;
    SchedulerConfig cfg_;
    const workload::WorkloadRegistry *registry_;
    const EstimateTable &estimates_;

    /** The candidate source, chosen once from cfg_.full_rescan. */
    std::unique_ptr<CandidateOrder> order_;
    mutable SchedulerTiming timing_;
    mutable WalkCounts walk_;
};

} // namespace quasar::core

