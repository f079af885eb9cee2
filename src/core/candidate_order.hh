/**
 * @file
 * The greedy walk's candidate source (paper Sec. 3.3): the per-server
 * view every state reader takes, and the servers a walk draws, best
 * quality first (quality = platform factor x best-socket interference
 * multiplier x speed; ties by ascending id).
 *
 * GreedyScheduler picks one of two implementations at construction,
 * from SchedulerConfig::full_rescan, and walks either through the
 * same loop: beginDrain, nextCandidate, dropBucketOf on an Unfit/Knob
 * reject, settleDropped on a take. Both emit the same sequence.
 *
 *  - The maintained order (production). A per-server cache entry,
 *    revalidated against the server's change epoch
 *    (sim::Server::version()) by replaying the cluster's ChangeJournal,
 *    so only servers touched since the last decision are recomputed.
 *    Alongside it, an incremental order: servers grouped into buckets
 *    of bitwise-equal workload-independent signature (platform,
 *    speed, newcomer contention, free capacity, best-effort totals,
 *    homed cores, prio_any, feasibility class). Every member of a
 *    bucket has the same quality for every workload, so the
 *    per-workload factors are applied once per bucket at read time
 *    and candidates drain best-first through an admissible
 *    per-(platform, speed) upper bound. A drain that settles after k
 *    servers costs O(dirty + E + k log B) — E the buckets of the few
 *    expanded levels, B ≤ N the live bucket count. The signature keys
 *    every Unfit/Knob input, so one such reject drops the whole
 *    bucket until the next node is taken (DESIGN.md §9).
 *  - The sorted full scan (tests-only oracle). A fresh entry per read,
 *    an eager score-and-sort per drain under the direct rank-time
 *    predicate (free + best-effort + priority-evictable cores ≥ 1),
 *    no drop. The QUASAR_VERIFY shadow oracle and the equivalence
 *    tests check the maintained order and its class filter against
 *    it. Benches and production configs must not select it.
 */

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "core/estimate.hh"
#include "sim/cluster.hh"
#include "topology/topology.hh"
#include "workload/workload.hh"

namespace quasar::core
{

/** "No preemptible resident" sentinel for the priority keys. */
inline constexpr int kNoPrio = std::numeric_limits<int>::max();

/** A drawn candidate: (quality, server), best first. */
using Candidate = std::pair<double, ServerId>;

/** A server's decision state as every reader sees it. */
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
     *  least one core and known to the registry (kNoPrio when none,
     *  or without a registry) — the Prio class key. */
    int prio_key = kNoPrio;
    /** The same minimum over every non-best-effort resident known to
     *  the registry, 0-core ones included: addPriorityEvictable()
     *  adds nothing for a workload whose priority is at most this, so
     *  the bucket drop needs no per-member ledger walk. */
    int prio_any = kNoPrio;
};

/**
 * Which servers a drain may emit. everything() is the diagnostic view
 * (GreedyScheduler::rankedCandidates); of() is the rank-time filter
 * of one allocate: available servers with a free core, or — with
 * eviction rights — an evictable one.
 */
struct CandidateFilter
{
    bool all = false;   ///< emit every server (diagnostics).
    bool evict = false; ///< count the best-effort pool as free.
    /** Count residents of registry priority strictly below this as
     *  evictable (min() disables priority preemption). */
    int prio_below = std::numeric_limits<int>::min();

    static CandidateFilter everything()
    {
        CandidateFilter f;
        f.all = true;
        return f;
    }

    /** The servers w may land on (Sec. 4.4: priority preemption needs
     *  the registry). */
    static CandidateFilter of(const workload::Workload &w, bool may_evict,
                              const workload::WorkloadRegistry *registry)
    {
        CandidateFilter f;
        f.evict = may_evict;
        if (may_evict && registry)
            f.prio_below = w.priority;
        return f;
    }
};

/**
 * Add the capacity of srv's non-best-effort residents whose registry
 * priority is strictly below `priority` (priority preemption,
 * Sec. 4.4; best-effort residents are the entry's be_* pool). No-op
 * without a registry.
 */
void addPriorityEvictable(const sim::Server &srv,
                          const workload::WorkloadRegistry *registry,
                          int priority, int &cores, double &memory_gb,
                          double &storage_gb);

/** Ranking quality of a server view for est: platform factor x
 *  best-socket interference multiplier x speed. */
double candidateQuality(const WorkloadEstimate &est,
                        const ServerCacheEntry &e, double slope);

/** The candidate source of one scheduler (see the file comment). */
class CandidateOrder
{
  public:
    /** The maintained order, or the sorted full scan when
     *  full_rescan. */
    static std::unique_ptr<CandidateOrder>
    make(bool full_rescan, const sim::Cluster &cluster,
         const workload::WorkloadRegistry *registry, double slope);

    virtual ~CandidateOrder() = default;

    /** Bring the source up to date with the cluster's mutations
     *  (journal replay; a no-op for the scan). */
    virtual void refreshIndex() = 0;

    /** srv's state: the cached entry, refreshed if its epoch moved,
     *  or a fresh entry built into `scratch`. */
    virtual const ServerCacheEntry &serverView(const sim::Server &srv,
                                               ServerCacheEntry &scratch) = 0;

    /** Whether a drain under f emits srv (e = serverView(srv)). */
    virtual bool admits(const sim::Server &srv, const ServerCacheEntry &e,
                        const CandidateFilter &f) const = 0;

    /** Refresh, then start a drain of the servers f admits for est.
     *  One drain at a time: a new one abandons the previous. */
    virtual void beginDrain(const WorkloadEstimate &est,
                            const CandidateFilter &f) = 0;

    /** The next candidate of the drain, or nullopt once exhausted. */
    virtual std::optional<Candidate> nextCandidate() = 0;

    /**
     * An Unfit/Knob reject of sid stands for its whole bucket: skip
     * the bucket's members until settleDropped() — unless a member's
     * priority-evictable capacity could still differ (a resident
     * ranks below the filter's prio_below). No-op for the scan.
     */
    virtual void dropBucketOf(ServerId sid) = 0;

    /**
     * Close the drop epoch at candidate `at` — the node just taken, or
     * the one the walk stopped on (nullptr: the drain ran dry).
     * Members of dropped buckets that precede `at` count as skipped;
     * with `resume`, a dropped bucket of at's quality re-enters the
     * drain at its first member after `at`, and a new epoch starts.
     * Returns the skipped count (0 for the scan).
     */
    virtual uint64_t settleDropped(const Candidate *at, bool resume) = 0;

#ifdef QUASAR_VERIFY
    /**
     * Recompute every server's entry from scratch and abort unless
     * the maintained index and order match field for field — catches
     * mutators that touch placement-relevant state without a journal
     * note or version bump. Sampled on refresh; a no-op for the scan.
     */
    virtual void auditIndexCoherence() {}
#endif

    /** `slope` is SchedulerConfig::slope_guess. */
    CandidateOrder(const sim::Cluster &cluster,
                   const workload::WorkloadRegistry *registry, double slope)
        : cluster_(cluster), registry_(registry), slope_(slope)
    {
    }

  protected:
    const sim::Cluster &cluster_;
    const workload::WorkloadRegistry *registry_;
    double slope_;
};

} // namespace quasar::core
