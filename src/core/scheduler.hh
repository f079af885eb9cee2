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
 * One server view: every state reader takes a ServerCacheEntry (the
 * platform index the server carries, its newcomer-contention ledger
 * summary, free capacity, best-effort totals and health). The dirty
 * path keeps one per server, revalidated against the server's change
 * epoch (sim::Server::version()); full_rescan builds a fresh one per
 * read with the same calls.
 *
 * Two ranking modes, both picking bit-identical placements:
 *  - dirty-set (production): the per-server index is kept fresh by
 *    replaying the cluster's ChangeJournal — only servers actually
 *    touched since the last decision are recomputed — and the
 *    candidate *order* is maintained incrementally alongside it.
 *    Servers are grouped into buckets of bitwise-equal
 *    workload-independent signature (platform index, speed factor,
 *    newcomer-contention vector); every member of a bucket has the
 *    same quality for every workload, so the per-workload factors
 *    (platform factor × interference multiplier) are applied once per
 *    *bucket* at read time, and candidates are drained best-first
 *    through an admissible per-(platform, speed) upper bound (the
 *    multiplier never exceeds 1). An allocate that settles after k
 *    servers costs O(dirty + E + k log B) where E is the buckets in
 *    the few expanded top levels and B ≤ N the live bucket count —
 *    never an O(N) scoring walk or heapify. The signature also keys
 *    free capacity, so every member of a bucket gets the same Unfit /
 *    Knob verdict: one rejection drops the whole bucket from the
 *    walk until the next node is taken (DESIGN.md §9).
 *  - full_rescan: the recompute-everything path (fresh server views,
 *    eager scoring and sort, its own rank-time filter), kept as the
 *    tests-only shadow oracle: the QUASAR_VERIFY layer and the
 *    equivalence tests re-run decisions through it, checking the
 *    maintained order and the class filter against it. Benches and
 *    production configs must not set it.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/estimate.hh"
#include "sim/cluster.hh"
#include "stats/timing.hh"
#include "topology/topology.hh"
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
     * Spread multi-node allocations across fault zones (Sec. 4.4):
     * prefer servers in zones the allocation does not use yet.
     */
    bool spread_fault_zones = false;
    /**
     * The decision path's only mode switch. false (the default) is
     * the dirty-set path: the per-server index is refreshed by
     * replaying the cluster's change journal and candidates drain
     * from the maintained order. true is the legacy path: recompute
     * every server's contention summary from the ledger and fully
     * re-sort all candidates on each placement. Tests-only: the
     * shadow oracle of the QUASAR_VERIFY layer and the equivalence
     * tests set it (and must keep picking identical placements);
     * benches and production configs must not.
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

/**
 * Lookup for the estimates of currently-placed workloads (needed for
 * the caused-interference check against residents).
 */
using EstimateLookup =
    std::function<const WorkloadEstimate *(WorkloadId)>;

/** The greedy joint allocator/assigner. */
class GreedyScheduler
{
  public:
    /**
     * @param registry optional: when provided, placements may evict
     *        residents of strictly lower priority (Sec. 4.4), not just
     *        best-effort tasks.
     */
    GreedyScheduler(const sim::Cluster &cluster, SchedulerConfig cfg = {},
                    const workload::WorkloadRegistry *registry = nullptr)
        : cluster_(cluster), cfg_(cfg), registry_(registry)
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
     * @param estimates lookup for residents' estimates (may be null).
     * @param may_evict allow evicting best-effort residents.
     * @return nullopt when nothing at all can be placed; otherwise an
     *         allocation, possibly flagged degraded.
     */
    std::optional<Allocation>
    allocate(const workload::Workload &w, const WorkloadEstimate &est,
             double required_perf, const EstimateLookup &estimates,
             bool may_evict) const;

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
                                const EstimateLookup &estimates,
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

    /** Decision-phase wall-clock timing since construction. */
    const SchedulerTiming &timing() const { return timing_; }

    /** Candidate accounting of every allocate since construction. */
    const WalkCounts &walkCounts() const { return walk_; }

    /**
     * The complete candidate order this scheduler would walk for the
     * given estimate: every server as (quality, id), best first, ties
     * broken by ascending id. The dirty-set mode drains its maintained
     * incremental order; full_rescan scores and sorts from scratch.
     * Diagnostic/test surface (the property suite compares the drained
     * order against a from-scratch std::sort after every mutation) —
     * O(N log N), not a decision-path call.
     */
    std::vector<std::pair<double, ServerId>>
    rankedCandidates(const WorkloadEstimate &est) const;

#ifdef QUASAR_VERIFY
    /**
     * Run the index/order coherence audit immediately, bypassing the
     * per-refresh sampling — lets tests prove deterministically that a
     * mutation which skipped the journal (or bumpVersion()) aborts.
     */
    void auditIndexCoherenceNow() const { auditIndexCoherence(); }
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

    /**
     * Feasibility class of a server for the candidate drain — a
     * cached factorization of allocateImpl's rank-time filter (which
     * the full_rescan path applies per decision, making the filtered
     * drain placement-preserving by construction):
     *  - Open:   available and ≥ 1 free core — emitted always.
     *  - Evict:  available, no free core, but the always-evictable
     *            best-effort pool covers one — emitted iff may_evict.
     *  - Prio:   available, even the best-effort pool does not cover
     *            a core, but a non-best-effort resident (with ≥ 1
     *            core, known to the registry) could be preempted;
     *            keyed by the minimum such resident priority —
     *            emitted iff may_evict and key < w.priority.
     *  - Closed: down, or nothing evictable — never emitted.
     * Correct because a resident's registry priority is fixed while
     * it holds shares (priorities are set before admission
     * everywhere in the tree); the QUASAR_VERIFY index audit
     * recomputes the class from live state and aborts on drift.
     */
    enum class FeasClass : uint8_t
    {
        Open = 0,
        Evict = 1,
        Prio = 2,
        Closed = 3,
    };

    /** "No preemptible resident" sentinel for prio_key. */
    static constexpr int kNoPrio = std::numeric_limits<int>::max();

    /**
     * Workload-independent signature of a server's ranking state:
     * platform index + socket count, speed factor, the per-socket
     * newcomer-contention vectors (zero-padded to kMaxSockets so the
     * flat single-socket partition is unchanged) — exactly the inputs
     * of the quality expression, compared bitwise — then the rest of
     * the walk's Unfit/Knob verdict inputs (free cores/memory/storage,
     * best-effort totals, per-socket homed cores, prio_any), so every
     * member of a bucket gets the same verdict; plus the feasibility
     * class word, so the level structure partitions members by drain
     * eligibility and a filtered drain skips whole classes without
     * touching their members. Words: platform|sockets, speed, S×K
     * contention, 7 capacity/priority, S homed-core, 1 class.
     */
    using OrderSig =
        std::array<uint64_t, 10 + size_t(topology::kMaxSockets) *
                                      (interference::kNumSources + 1)>;

    /**
     * Per-server cached decision state, revalidated lazily against
     * the server's change epoch (incremental ranking index).
     */
    struct ServerCacheEntry
    {
        uint64_t version = ~uint64_t(0); ///< epoch the entry matches.
        /** Per-socket newcomer contention ([0] is the flat view on a
         *  single-socket platform). */
        std::array<interference::IVector, topology::kMaxSockets>
            socket_contention{};
        /** Allocated cores homed per socket (socket tie-breaks). */
        std::array<int, topology::kMaxSockets> socket_cores{};
        uint8_t sockets = 1;
        int free_cores = 0;
        double free_mem = 0.0;
        double free_storage = 0.0;
        double speed = 1.0;
        bool available = true;
        /** Best-effort residents' totals (always-evictable pool). */
        int be_cores = 0;
        double be_mem = 0.0;
        double be_storage = 0.0;
        /** Catalog index of the server's platform
         *  (Server::platformIndex()). */
        size_t platform_idx = 0;
        /** Minimum priority over non-best-effort residents holding at
         *  least one core and known to the registry (kNoPrio when
         *  none, or without a registry) — the Prio class key. */
        int prio_key = kNoPrio;
        /** The same minimum over every non-best-effort resident known
         *  to the registry, 0-core ones included: priorityEvictable()
         *  adds nothing for a workload whose priority is at most
         *  this, so the bucket drop needs no per-member ledger walk. */
        int prio_any = kNoPrio;
    };

    /**
     * One equivalence class of the maintained candidate order: every
     * server whose workload-independent signature (see OrderSig) is
     * *bitwise* equal. Members therefore have identical quality for
     * every workload, so read time computes the per-workload factors
     * once per bucket and emits members in ascending-id order —
     * precisely rankedBefore's tie-break. Topology enters only here,
     * through the lazily-applied best-socket multiplier: the order
     * structure itself stays workload-independent.
     */
    struct OrderBucket
    {
        OrderSig sig{};
        size_t platform_idx = 0;
        double speed = 1.0;
        std::array<interference::IVector, topology::kMaxSockets>
            socket_contention{};
        uint8_t sockets = 1;
        /** Feasibility class of every member (part of the sig). */
        FeasClass cls = FeasClass::Open;
        /** Prio-class key (kNoPrio outside FeasClass::Prio). */
        int prio_key = kNoPrio;
        /** Every member's prio_any (part of the sig). */
        int prio_any = kNoPrio;
        /** Members, ascending (the rankedBefore tie-break order). */
        std::set<ServerId> ids;
        /** Position inside its level's class list (swap-removal). */
        uint32_t level_pos = 0;
        /** Walk epoch the bucket was dropped in (0: never). */
        uint64_t dropped_epoch = 0;
    };

    /**
     * Buckets of one (platform, speed) level, unordered within but
     * partitioned by feasibility class so a filtered drain expands
     * only eligible buckets and skips a fully-ineligible level in
     * O(1) — this is what turns a saturated-cluster allocate failure
     * from an O(N) emit-and-reject walk into an O(levels) probe.
     */
    struct OrderLevel
    {
        std::vector<uint32_t> open;
        std::vector<uint32_t> evict;
        /** Prio-class buckets by key; drained for keys < w.priority. */
        std::map<int, std::vector<uint32_t>> prio;
        std::vector<uint32_t> closed;

        bool empty() const
        {
            return open.empty() && evict.empty() && prio.empty() &&
                   closed.empty();
        }
    };

    /** A platform's levels, fastest speed first. */
    using LevelMap = std::map<double, OrderLevel, std::greater<double>>;

    /** A cursor into one bucket during a read-time drain. */
    struct OrderCursor
    {
        double quality = 0.0;
        ServerId id = 0;
        const OrderBucket *bucket = nullptr;
        std::set<ServerId>::const_iterator it;
        /** Index of `it` within the bucket's members. */
        size_t pos = 0;
    };

    /** An unexpanded (platform, speed) level with its quality bound. */
    struct LevelCursor
    {
        double bound = 0.0;
        size_t platform = 0;
        LevelMap::const_iterator it;
    };

    /**
     * Which feasibility classes a drain may emit. everything() is the
     * diagnostic view (rankedCandidates); allocate builds the filter
     * from (may_evict, w.priority, registry) so the drained sequence
     * is exactly the full_rescan rank-time filtered candidate set.
     */
    struct OrderFilter
    {
        bool all = false;       ///< emit every class (diagnostics).
        bool evict = false;     ///< emit the Evict class.
        /** Emit Prio buckets with key strictly below this (kNoPrio
         *  sentinel min() disables the class). */
        int prio_below = std::numeric_limits<int>::min();

        static OrderFilter everything()
        {
            OrderFilter f;
            f.all = true;
            return f;
        }
    };

    /**
     * Read-time drain state for one allocate: `exact` holds cursors
     * into expanded buckets (top = best (quality, id)); `pending`
     * holds the best unexpanded level per platform under an admissible
     * bound (quality ≤ platform_factor × speed since the interference
     * multiplier never exceeds 1), so a candidate is emitted only once
     * no unexpanded level can beat it.
     *
     * Bucket drop: a bucket stamped with the stream's current `epoch`
     * is not emitted; its cursor moves to `suspended` when it reaches
     * the top, until settleDropped() closes the epoch.
     */
    struct OrderStream
    {
        std::vector<OrderCursor> exact;
        std::vector<LevelCursor> pending;
        OrderFilter filter;
        uint64_t epoch = 0;
        std::vector<OrderCursor> suspended;
    };

    /** Recompute e from srv's current state (the verify audit and
     *  the full_rescan view share it with the index, so every reader
     *  sees bitwise-identical values). */
    void refreshEntry(const sim::Server &srv, ServerCacheEntry &e) const;

    /** refreshEntry + incremental-order maintenance. */
    void refreshEntryIndexed(const sim::Server &srv,
                             ServerCacheEntry &e) const;

    /** Cached state for srv, refreshed if its epoch moved. */
    const ServerCacheEntry &cachedState(const sim::Server &srv) const;

    /**
     * The server view every state reader takes: cachedState(srv) on
     * the dirty path, a fresh refreshEntry into `scratch` under
     * full_rescan (the decision path's only state-read fork).
     */
    const ServerCacheEntry &serverView(const sim::Server &srv,
                                       ServerCacheEntry &scratch) const;

    /** True when this scheduler maintains the incremental order. */
    bool orderMaintained() const
    {
        return !cfg_.full_rescan;
    }

    /** The order signature of a cache entry (see OrderSig). */
    static OrderSig orderSig(const ServerCacheEntry &e);

    /** Move id into the bucket matching e (no-op when unchanged). */
    void orderPlace(ServerId id, const ServerCacheEntry &e) const;

    /** Remove id from its bucket, freeing emptied buckets/levels. */
    void orderRemove(ServerId id) const;

    /** Heap orders (std::*_heap "less"): top = best candidate/bound. */
    static bool cursorLess(const OrderCursor &a, const OrderCursor &b);
    static bool levelLess(const LevelCursor &a, const LevelCursor &b);

    /** The feasibility class (and Prio key) the entry belongs to. */
    static std::pair<FeasClass, int>
    feasibilityClass(const ServerCacheEntry &e);

    /** The level list holding buckets of the given class/key. */
    static std::vector<uint32_t> &levelList(OrderLevel &lvl,
                                            FeasClass cls,
                                            int prio_key);

    /** True when the filter admits buckets of this class/key. */
    static bool filterAdmits(const OrderFilter &f, FeasClass cls,
                             int prio_key);

    /** The drain filter of one allocate: the classes w may land in. */
    OrderFilter candidateFilter(const workload::Workload &w,
                                bool may_evict) const;

    /** Start a drain of the maintained order for one estimate. */
    void beginOrderedCandidates(OrderStream &s,
                                const WorkloadEstimate &est,
                                const OrderFilter &filter) const;

    /** Next candidate in (quality desc, id asc) order, or nullopt.
     *  Members of buckets dropped in the current epoch are skipped. */
    std::optional<std::pair<double, ServerId>>
    nextOrderedCandidate(OrderStream &s,
                         const WorkloadEstimate &est) const;

    /**
     * Close the stream's drop epoch at candidate `at` — the node just
     * taken, or the one the walk stopped on (nullptr: the stream ran
     * dry). Members of suspended buckets that precede `at` in the
     * order are counted as skipped; with `resume`, a cursor whose
     * quality equals at's re-enters the stream at its first member
     * after `at`, and the stream starts a new epoch. Returns the
     * number of skipped members.
     */
    uint64_t settleDropped(OrderStream &s,
                           const std::pair<double, ServerId> *at,
                           bool resume) const;

    /**
     * Bring the whole index up to date by replaying the cluster's
     * change journal from this scheduler's cursor (falling back to a
     * full epoch-check scan when the journal was compacted past it or
     * the index is unprimed). A no-op under full_rescan.
     */
    void refreshIndex() const;

    /** The greedy walk itself (allocate() wraps it so the verify
     *  build can shadow-check each decision on the way out). */
    std::optional<Allocation>
    allocateImpl(const workload::Workload &w,
                 const WorkloadEstimate &est, double required_perf,
                 const EstimateLookup &estimates, bool may_evict) const;

#ifdef QUASAR_VERIFY
    /**
     * Sampled audit (verify builds only): recompute every server's
     * index entry from scratch and abort unless the journal-replayed
     * index matches field-for-field — catches mutators that touch
     * placement-relevant state without bumping the change epoch.
     */
    void auditIndexCoherence() const;
#endif

    /**
     * Extra evictable capacity from priority preemption (residents of
     * strictly lower priority than w, excluding best-effort tasks,
     * which the cache already totals).
     */
    void priorityEvictable(const sim::Server &srv,
                           const workload::Workload &w, int &cores,
                           double &memory_gb, double &storage_gb) const;

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
                           int socket,
                           const EstimateLookup &estimates) const;

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
     * evictions in `planned`. e is serverView(srv). The walk and
     * firstNodeVerdict both call it, so the failure memo's proof
     * applies the walk's own test.
     */
    NodeReject nodeVerdict(const sim::Server &srv,
                           const ServerCacheEntry &e,
                           const workload::Workload &w,
                           const WorkloadEstimate &est, WalkState &so_far,
                           const EstimateLookup &estimates, bool may_evict,
                           NodePick &pick,
                           std::vector<std::pair<ServerId, WorkloadId>>
                               &planned) const;

    /** Hourly cost of the pick's cores on srv (Sec. 4.4 cost cap). */
    static double nodeCost(const sim::Server &srv, const NodePick &pick);

    const sim::Cluster &cluster_;
    SchedulerConfig cfg_;
    const workload::WorkloadRegistry *registry_;

    /** The incremental per-server ranking index. */
    mutable std::vector<ServerCacheEntry> cache_;
    /** Dirty-set journal cursor (next journal offset to replay). */
    mutable uint64_t journal_cursor_ = 0;
    /** True once the dirty-set index fully covers the cluster. */
    mutable bool index_primed_ = false;

    /** No-bucket sentinel for server_bucket_. */
    static constexpr uint32_t kNoBucket = ~uint32_t(0);
    struct SigHash
    {
        size_t operator()(const OrderSig &k) const
        {
            uint64_t h = 0xCBF29CE484222325ULL;
            for (uint64_t v : k) {
                h ^= v;
                h *= 0x100000001B3ULL;
            }
            return size_t(h);
        }
    };
    /** All order buckets; slots are stable and free-listed. */
    mutable std::vector<OrderBucket> order_buckets_;
    mutable std::vector<uint32_t> free_buckets_;
    /** Signature → bucket slot (point lookups only, never iterated). */
    mutable std::unordered_map<OrderSig, uint32_t, SigHash>
        bucket_of_sig_;
    /** Per-platform (speed-descending) level maps. */
    mutable std::vector<LevelMap> platform_order_;
    /** Each server's current bucket slot (kNoBucket when absent). */
    mutable std::vector<uint32_t> server_bucket_;
    /** Last walk epoch handed out (bucket drop stamps). */
    mutable uint64_t walk_epoch_ = 0;
#ifdef QUASAR_VERIFY
    /** Per-scheduler sampling counter for auditIndexCoherence(). */
    mutable uint64_t audit_refreshes_ = 0;
#endif
    mutable SchedulerTiming timing_;
    mutable WalkCounts walk_;
};

} // namespace quasar::core

