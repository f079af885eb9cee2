#include "core/candidate_order.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#ifdef QUASAR_VERIFY
#include <cstdio>
#include <cstdlib>

// Sanctioned upward edge: the index audit counts itself under
// QUASAR_VERIFY only. quasar-lint: allow(layering)
#include "verify/verify.hh"
#endif

namespace quasar::core
{

namespace
{

/** Strict-weak order for ranking: quality desc, id asc on ties. */
bool
rankedBefore(const Candidate &a, const Candidate &b)
{
    if (a.first != b.first)
        return a.first > b.first;
    return a.second < b.second;
}

/**
 * Admissible read-time bound on any bucket of a (platform, speed)
 * level: quality = pf × im × speed with im ∈ (0, 1], so pf ≥ 0 gives
 * quality ≤ pf × speed (exact in floating point: multiplying a
 * non-negative representable value by a factor ≤ 1 never rounds above
 * it), and pf < 0 gives quality ≤ 0.
 */
double
levelBound(double platform_factor, double speed)
{
    return platform_factor >= 0.0 ? platform_factor * speed : 0.0;
}

/**
 * The quality expression on its workload-independent inputs: platform
 * factor x the best predicted interference multiplier over the
 * server's sockets x speed. On a flat server the multiplier is exactly
 * the single-view one, so the flat expression is unchanged bit for
 * bit. Entries and buckets share it, so both sources rank on
 * bitwise-identical values.
 */
double
quality(const WorkloadEstimate &est, size_t platform_idx,
        const std::array<interference::IVector, topology::kMaxSockets>
            &views,
        int sockets, double speed, double slope)
{
    double best = est.interferenceMultiplier(views[0], slope);
    for (int s = 1; s < sockets; ++s) {
        double m = est.interferenceMultiplier(views[size_t(s)], slope);
        if (m > best)
            best = m;
    }
    return est.platform_factor[platform_idx] * best * speed;
}

/**
 * Recompute e from srv's current state. The single source of every
 * entry field: the index refresh, the scan's fresh view and the verify
 * audit all call it, so every reader sees bitwise-identical values.
 */
void
refreshEntry(const sim::Server &srv,
             const workload::WorkloadRegistry *registry,
             ServerCacheEntry &e)
{
    sim::Server::SocketSnapshot snap = srv.socketSnapshot();
    e.sockets = uint8_t(snap.sockets);
    e.socket_contention = snap.contention;
    e.socket_cores = snap.cores_homed;
    e.free_cores = srv.coresFree();
    e.free_mem = srv.memoryFree();
    e.free_storage = srv.storageFree();
    e.speed = srv.speedFactor();
    e.available = srv.available();
    // Best-effort residents' totals, in task order.
    e.be_cores = 0;
    e.be_mem = 0.0;
    e.be_storage = 0.0;
    for (const sim::TaskShare &t : srv.tasks()) {
        if (t.best_effort) {
            e.be_cores += t.cores;
            e.be_mem += t.memory_gb;
            e.be_storage += t.storage_gb;
        }
    }
    e.platform_idx = srv.platformIndex();
    // Prio-class key: the lowest registry priority among non-best-
    // effort residents holding at least one core. addPriorityEvictable()
    // frees ≥ 1 core for priority p exactly when this key is strictly
    // below p (core shares are non-negative integers), so the drain
    // can skip whole priority classes without walking the resident
    // ledger. prio_any takes the same minimum over 0-core residents
    // too: addPriorityEvictable() adds nothing at all (not even memory
    // or storage) unless it is strictly below p.
    e.prio_key = kNoPrio;
    e.prio_any = kNoPrio;
    if (registry) {
        for (const sim::TaskShare &t : srv.tasks()) {
            if (t.best_effort || !registry->contains(t.workload))
                continue;
            int prio = registry->get(t.workload).priority;
            e.prio_any = std::min(e.prio_any, prio);
            if (t.cores >= 1)
                e.prio_key = std::min(e.prio_key, prio);
        }
    }
    e.version = srv.version();
}

// -------------------------------------------------------------------
// The sorted full scan (tests-only oracle)
// -------------------------------------------------------------------

/** Fresh views, eager score-and-sort, the direct rank-time predicate;
 *  no index, no drop. */
class SortedScan final : public CandidateOrder
{
  public:
    using CandidateOrder::CandidateOrder;

    void refreshIndex() override {}

    const ServerCacheEntry &serverView(const sim::Server &srv,
                                       ServerCacheEntry &scratch) override
    {
        refreshEntry(srv, registry_, scratch);
        return scratch;
    }

    bool admits(const sim::Server &srv, const ServerCacheEntry &e,
                const CandidateFilter &f) const override
    {
        if (f.all)
            return true;
        int free = e.free_cores;
        if (e.available && f.evict)
            free += e.be_cores;
        // The resident-ledger walk only ADDS evictable capacity and the
        // bar is `free ≥ 1`, so a server already over it never needs
        // the walk.
        if (e.available && free < 1 && f.evict) {
            double pm = 0.0, ps = 0.0;
            addPriorityEvictable(srv, registry_, f.prio_below, free, pm,
                                 ps);
        }
        return e.available && free >= 1; // down machines take nothing
    }

    void beginDrain(const WorkloadEstimate &est,
                    const CandidateFilter &f) override
    {
        ranked_.clear();
        next_ = 0;
        ranked_.reserve(cluster_.size());
        for (size_t i = 0; i < cluster_.size(); ++i) {
            const sim::Server &srv = cluster_.server(ServerId(i));
            ServerCacheEntry e;
            refreshEntry(srv, registry_, e);
            if (admits(srv, e, f))
                ranked_.emplace_back(candidateQuality(est, e, slope_),
                                     ServerId(i));
        }
        std::sort(ranked_.begin(), ranked_.end(), rankedBefore);
    }

    std::optional<Candidate> nextCandidate() override
    {
        if (next_ >= ranked_.size())
            return std::nullopt;
        return ranked_[next_++];
    }

    void dropBucketOf(ServerId) override {}

    uint64_t settleDropped(const Candidate *, bool) override { return 0; }

  private:
    std::vector<Candidate> ranked_;
    size_t next_ = 0;
};

// -------------------------------------------------------------------
// The maintained order (production)
// -------------------------------------------------------------------

/**
 * Feasibility class of a server for the drain — a cached
 * factorization of the scan's direct rank-time predicate (which the
 * equivalence tests and the shadow oracle hold it against):
 *  - Open:   available and ≥ 1 free core — emitted always.
 *  - Evict:  available, no free core, but the always-evictable
 *            best-effort pool covers one — emitted iff filter.evict.
 *  - Prio:   available, even the best-effort pool does not cover a
 *            core, but a non-best-effort resident (with ≥ 1 core,
 *            known to the registry) could be preempted; keyed by the
 *            minimum such resident priority — emitted iff key <
 *            filter.prio_below.
 *  - Closed: down, or nothing evictable — never emitted.
 * Correct because a resident's registry priority is fixed while it
 * holds shares (priorities are set before admission everywhere in the
 * tree); the QUASAR_VERIFY index audit recomputes the class from live
 * state and aborts on drift.
 */
enum class FeasClass : uint8_t
{
    Open = 0,
    Evict = 1,
    Prio = 2,
    Closed = 3,
};

/** The feasibility class (and Prio key) an entry belongs to. */
std::pair<FeasClass, int>
feasibilityClass(const ServerCacheEntry &e)
{
    if (!e.available)
        return {FeasClass::Closed, kNoPrio};
    if (e.free_cores >= 1)
        return {FeasClass::Open, kNoPrio};
    if (e.free_cores + e.be_cores >= 1)
        return {FeasClass::Evict, kNoPrio};
    if (e.prio_key != kNoPrio)
        return {FeasClass::Prio, e.prio_key};
    return {FeasClass::Closed, kNoPrio};
}

/** True when the filter admits servers of this class/key. */
bool
filterAdmits(const CandidateFilter &f, FeasClass cls, int prio_key)
{
    if (f.all)
        return true;
    switch (cls) {
    case FeasClass::Open:
        return true;
    case FeasClass::Evict:
        return f.evict;
    case FeasClass::Prio:
        return prio_key < f.prio_below;
    case FeasClass::Closed:
        break;
    }
    return false;
}

/**
 * Workload-independent signature of a server's ranking state:
 * platform index + socket count, speed factor, the per-socket
 * newcomer-contention vectors (zero-padded to kMaxSockets so the flat
 * single-socket partition is unchanged) — exactly the inputs of the
 * quality expression, compared bitwise — then the rest of the walk's
 * Unfit/Knob verdict inputs (free cores/memory/storage, best-effort
 * totals, per-socket homed cores, prio_any), so every member of a
 * bucket gets the same verdict; plus the feasibility class word, so
 * the level structure partitions members by drain eligibility and a
 * filtered drain skips whole classes without touching their members.
 * Words: platform|sockets, speed, S×K contention, 7 capacity/priority,
 * S homed-core, 1 class.
 */
using OrderSig =
    std::array<uint64_t, 10 + size_t(topology::kMaxSockets) *
                                  (interference::kNumSources + 1)>;

/** The order signature of a cache entry. */
OrderSig
orderSig(const ServerCacheEntry &e)
{
    // Socket count rides in the platform word: a flat server with
    // contention v and a 2-socket server with [v, 0] must never share
    // a bucket (the idle remote socket lifts the best-socket
    // multiplier). Absent sockets stay zero-padded, so the flat
    // partition is exactly the pre-topology one.
    OrderSig sig{};
    size_t k = 0;
    sig[k++] = uint64_t(e.platform_idx) | uint64_t(e.sockets) << 56;
    sig[k++] = std::bit_cast<uint64_t>(e.speed);
    for (size_t s = 0; s < size_t(topology::kMaxSockets); ++s)
        for (size_t i = 0; i < interference::kNumSources; ++i)
            sig[k++] = std::bit_cast<uint64_t>(e.socket_contention[s][i]);
    // The rest of the walk's Unfit/Knob verdict inputs: with these
    // equal, pickNodeConfig and the knob re-scan compute the same
    // pick for every member (addPriorityEvictable aside, which the
    // drop guards with prio_any).
    sig[k++] = uint64_t(uint32_t(e.free_cores));
    sig[k++] = std::bit_cast<uint64_t>(e.free_mem);
    sig[k++] = std::bit_cast<uint64_t>(e.free_storage);
    sig[k++] = uint64_t(uint32_t(e.be_cores));
    sig[k++] = std::bit_cast<uint64_t>(e.be_mem);
    sig[k++] = std::bit_cast<uint64_t>(e.be_storage);
    sig[k++] = uint64_t(uint32_t(e.prio_any));
    for (size_t s = 0; s < size_t(topology::kMaxSockets); ++s)
        sig[k++] = uint64_t(uint32_t(e.socket_cores[s]));
    // The feasibility class rides in the signature, so the level
    // structure can file the bucket under its class list.
    auto [cls, prio_key] = feasibilityClass(e);
    sig[k++] = uint64_t(uint32_t(prio_key)) | uint64_t(cls) << 62;
    assert(k == sig.size());
    return sig;
}

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

/**
 * One equivalence class of the maintained order: every server whose
 * signature (see OrderSig) is *bitwise* equal. Members therefore have
 * identical quality for every workload, so read time computes the
 * per-workload factors once per bucket and emits members in
 * ascending-id order — precisely rankedBefore's tie-break. Topology
 * enters only here, through the lazily-applied best-socket
 * multiplier: the order structure itself stays workload-independent.
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
    /** Drop epoch the bucket was dropped in (0: never). */
    uint64_t dropped_epoch = 0;
};

/**
 * Buckets of one (platform, speed) level, unordered within but
 * partitioned by feasibility class so a filtered drain expands only
 * eligible buckets and skips a fully-ineligible level in O(1) — this
 * is what turns a saturated-cluster allocate failure from an O(N)
 * emit-and-reject walk into an O(levels) probe.
 */
struct OrderLevel
{
    std::vector<uint32_t> open;
    std::vector<uint32_t> evict;
    /** Prio-class buckets by key; drained for keys < prio_below. */
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

/** The level list holding buckets of the given class/key. */
std::vector<uint32_t> &
levelList(OrderLevel &lvl, FeasClass cls, int prio_key)
{
    switch (cls) {
    case FeasClass::Open:
        return lvl.open;
    case FeasClass::Evict:
        return lvl.evict;
    case FeasClass::Prio:
        return lvl.prio[prio_key];
    case FeasClass::Closed:
        break;
    }
    return lvl.closed;
}

/** A cursor into one bucket during a drain. */
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

/** Heap orders (std::*_heap "less"): top = best candidate/bound. */
bool
cursorLess(const OrderCursor &a, const OrderCursor &b)
{
    return rankedBefore({b.quality, b.id}, {a.quality, a.id});
}

bool
levelLess(const LevelCursor &a, const LevelCursor &b)
{
    if (a.bound != b.bound)
        return a.bound < b.bound;
    return a.platform > b.platform;
}

/** Journal-replayed cache entries plus the bucketed order over them. */
class MaintainedOrder final : public CandidateOrder
{
  public:
    using CandidateOrder::CandidateOrder;

    void refreshIndex() override;
    const ServerCacheEntry &serverView(const sim::Server &srv,
                                       ServerCacheEntry &scratch) override;
    bool admits(const sim::Server &srv, const ServerCacheEntry &e,
                const CandidateFilter &f) const override;
    void beginDrain(const WorkloadEstimate &est,
                    const CandidateFilter &f) override;
    std::optional<Candidate> nextCandidate() override;
    void dropBucketOf(ServerId sid) override;
    uint64_t settleDropped(const Candidate *at, bool resume) override;
#ifdef QUASAR_VERIFY
    void auditIndexCoherence() override;
#endif

  private:
    /** refreshEntry + order maintenance. */
    void refreshEntryIndexed(const sim::Server &srv, ServerCacheEntry &e);
    /** Move id into the bucket matching e (no-op when unchanged). */
    void orderPlace(ServerId id, const ServerCacheEntry &e);
    /** Remove id from its bucket, freeing emptied buckets/levels. */
    void orderRemove(ServerId id);

    /** The per-server entries, one per server. */
    std::vector<ServerCacheEntry> cache_;
    /** Dirty-set journal cursor (next journal offset to replay). */
    uint64_t journal_cursor_ = 0;
    /** True once the index fully covers the cluster. */
    bool index_primed_ = false;

    /** No-bucket sentinel for server_bucket_. */
    static constexpr uint32_t kNoBucket = ~uint32_t(0);
    /** All order buckets; slots are stable and free-listed. */
    std::vector<OrderBucket> order_buckets_;
    std::vector<uint32_t> free_buckets_;
    /** Signature → bucket slot (point lookups only, never iterated). */
    std::unordered_map<OrderSig, uint32_t, SigHash> bucket_of_sig_;
    /** Per-platform (speed-descending) level maps. */
    std::vector<LevelMap> platform_order_;
    /** Each server's current bucket slot (kNoBucket when absent). */
    std::vector<uint32_t> server_bucket_;
    /** Last drop epoch handed out (bucket drop stamps). */
    uint64_t drop_epoch_ = 0;

    /**
     * The drain: `exact` holds cursors into expanded buckets (top =
     * best (quality, id)); `pending` holds the best unexpanded level
     * per platform under an admissible bound (quality ≤
     * platform_factor × speed since the interference multiplier never
     * exceeds 1), so a candidate is emitted only once no unexpanded
     * level can beat it. A bucket stamped with the drain's current
     * `epoch` is not emitted; its cursor moves to `suspended` when it
     * reaches the top, until settleDropped() closes the epoch.
     */
    const WorkloadEstimate *est_ = nullptr;
    CandidateFilter filter_;
    std::vector<OrderCursor> exact_;
    std::vector<LevelCursor> pending_;
    uint64_t epoch_ = 0;
    std::vector<OrderCursor> suspended_;
#ifdef QUASAR_VERIFY
    /** Sampling counter for auditIndexCoherence(). */
    uint64_t audit_refreshes_ = 0;
#endif
};

void
MaintainedOrder::refreshEntryIndexed(const sim::Server &srv,
                                     ServerCacheEntry &e)
{
    refreshEntry(srv, registry_, e);
    orderPlace(srv.id(), e);
}

void
MaintainedOrder::orderPlace(ServerId id, const ServerCacheEntry &e)
{
    const OrderSig sig = orderSig(e);
    auto [cls, prio_key] = feasibilityClass(e);

    if (server_bucket_.size() < cache_.size())
        server_bucket_.resize(cache_.size(), kNoBucket);
    uint32_t cur = server_bucket_[size_t(id)];
    if (cur != kNoBucket && order_buckets_[cur].sig == sig)
        return; // the mutation kept the signature; order unchanged
    if (cur != kNoBucket)
        orderRemove(id);

    uint32_t slot;
    auto it = bucket_of_sig_.find(sig);
    if (it != bucket_of_sig_.end()) {
        slot = it->second;
    } else {
        if (free_buckets_.empty()) {
            slot = uint32_t(order_buckets_.size());
            order_buckets_.emplace_back();
        } else {
            slot = free_buckets_.back();
            free_buckets_.pop_back();
        }
        OrderBucket &b = order_buckets_[slot];
        b.sig = sig;
        b.platform_idx = e.platform_idx;
        b.speed = e.speed;
        b.socket_contention = e.socket_contention;
        b.sockets = e.sockets;
        b.cls = cls;
        b.prio_key = prio_key;
        b.prio_any = e.prio_any;
        b.ids.clear();
        b.dropped_epoch = 0;
        if (platform_order_.size() <= e.platform_idx)
            platform_order_.resize(e.platform_idx + 1);
        OrderLevel &lvl = platform_order_[e.platform_idx][e.speed];
        std::vector<uint32_t> &list = levelList(lvl, cls, prio_key);
        b.level_pos = uint32_t(list.size());
        list.push_back(slot);
        bucket_of_sig_.emplace(sig, slot);
    }
    order_buckets_[slot].ids.insert(id);
    server_bucket_[size_t(id)] = slot;
}

void
MaintainedOrder::orderRemove(ServerId id)
{
    uint32_t slot = server_bucket_[size_t(id)];
    OrderBucket &b = order_buckets_[slot];
    b.ids.erase(id);
    server_bucket_[size_t(id)] = kNoBucket;
    if (!b.ids.empty())
        return;
    // Free the emptied bucket: swap-remove it from its level's class
    // list, drop the level when it fully empties, release the slot to
    // the free list.
    LevelMap &levels = platform_order_[b.platform_idx];
    auto lit = levels.find(b.speed);
    assert(lit != levels.end());
    OrderLevel &lvl = lit->second;
    std::vector<uint32_t> &list = levelList(lvl, b.cls, b.prio_key);
    uint32_t moved = list.back();
    list[b.level_pos] = moved;
    order_buckets_[moved].level_pos = b.level_pos;
    list.pop_back();
    if (b.cls == FeasClass::Prio && list.empty())
        lvl.prio.erase(b.prio_key);
    if (lvl.empty())
        levels.erase(lit);
    bucket_of_sig_.erase(b.sig);
    free_buckets_.push_back(slot);
}

void
MaintainedOrder::refreshIndex()
{
    const sim::ChangeJournal &journal = cluster_.journal();
    if (cache_.size() < cluster_.size())
        cache_.resize(cluster_.size());
    if (!index_primed_ || journal_cursor_ < journal.base()) {
        // First use, or a cursor compacted out of the journal: fall
        // back to a full epoch-check scan, once.
        for (size_t i = 0; i < cluster_.size(); ++i) {
            const sim::Server &srv = cluster_.server(ServerId(i));
            ServerCacheEntry &e = cache_[i];
            if (e.version != srv.version())
                refreshEntryIndexed(srv, e);
        }
        index_primed_ = true;
    } else {
        // Incremental: replay only the servers touched since this
        // index's last refresh. Duplicate journal entries dedupe
        // through the epoch compare (first replay refreshes, the rest
        // no-op).
        const uint64_t snapshot = journal.end();
        for (uint64_t pos = journal_cursor_; pos < snapshot; ++pos) {
            const sim::Server &srv = cluster_.server(journal.at(pos));
            ServerCacheEntry &e = cache_[size_t(srv.id())];
            if (e.version != srv.version())
                refreshEntryIndexed(srv, e);
        }
    }
    journal_cursor_ = journal.end();
#ifdef QUASAR_VERIFY
    // Sampled (every 64th refresh): the full recompute is O(N x
    // ledger) and the refresh runs per decision, so auditing every
    // call would dominate verify-build suites without adding much —
    // a desynchronized entry stays desynchronized until its next
    // legitimate refresh and is caught by a later sample or by the
    // shadow oracle's divergence check. Tests can force an unsampled
    // audit through GreedyScheduler::auditIndexCoherenceNow().
    if (++audit_refreshes_ % 64 == 0)
        auditIndexCoherence();
#endif
}

const ServerCacheEntry &
MaintainedOrder::serverView(const sim::Server &srv, ServerCacheEntry &)
{
    if (cache_.size() < cluster_.size())
        cache_.resize(cluster_.size());
    ServerCacheEntry &e = cache_[size_t(srv.id())];
    if (e.version != srv.version())
        refreshEntryIndexed(srv, e);
    return e;
}

bool
MaintainedOrder::admits(const sim::Server &, const ServerCacheEntry &e,
                        const CandidateFilter &f) const
{
    auto [cls, prio_key] = feasibilityClass(e);
    return filterAdmits(f, cls, prio_key);
}

void
MaintainedOrder::beginDrain(const WorkloadEstimate &est,
                            const CandidateFilter &f)
{
    refreshIndex();
    est_ = &est;
    filter_ = f;
    exact_.clear();
    pending_.clear();
    epoch_ = ++drop_epoch_;
    suspended_.clear();
    for (size_t p = 0; p < platform_order_.size(); ++p) {
        const LevelMap &levels = platform_order_[p];
        if (levels.empty())
            continue;
        assert(p < est.platform_factor.size());
        LevelCursor lc;
        lc.bound = levelBound(est.platform_factor[p], levels.begin()->first);
        lc.platform = p;
        lc.it = levels.begin();
        pending_.push_back(lc);
    }
    std::make_heap(pending_.begin(), pending_.end(), levelLess);
}

std::optional<Candidate>
MaintainedOrder::nextCandidate()
{
    const WorkloadEstimate &est = *est_;
    while (true) {
        // Emit the best expanded candidate once no unexpanded level
        // can beat it. A level whose bound merely TIES the candidate
        // must still be expanded first: it may hold an equal-quality
        // server with a smaller id (rankedBefore's tie-break).
        if (!exact_.empty() &&
            (pending_.empty() ||
             exact_.front().quality > pending_.front().bound)) {
            std::pop_heap(exact_.begin(), exact_.end(), cursorLess);
            OrderCursor c = exact_.back();
            exact_.pop_back();
            if (c.bucket->dropped_epoch == epoch_) {
                // Dropped this epoch: park the cursor at its next
                // member, exactly where the drain reached it.
                suspended_.push_back(c);
                continue;
            }
            Candidate out{c.quality, c.id};
            ++c.it;
            ++c.pos;
            if (c.it != c.bucket->ids.end()) {
                c.id = *c.it;
                exact_.push_back(c);
                std::push_heap(exact_.begin(), exact_.end(), cursorLess);
            }
            return out;
        }
        if (pending_.empty())
            return std::nullopt; // order fully drained
        // Expand the best unexpanded level: apply the per-workload
        // factors once per bucket (not once per server), then queue
        // the platform's next-fastest level under its own bound. Only
        // the class lists the filter admits are touched — a saturated
        // level (all members Closed, or Prio at or above the
        // workload's priority) costs one map probe, not a walk over
        // its members.
        std::pop_heap(pending_.begin(), pending_.end(), levelLess);
        LevelCursor lc = pending_.back();
        pending_.pop_back();
        const OrderLevel &level = lc.it->second;
        auto expand = [&](const std::vector<uint32_t> &list) {
            for (uint32_t slot : list) {
                const OrderBucket &b = order_buckets_[slot];
                OrderCursor c;
                // The entries' quality expression on bitwise-equal
                // inputs, so the drained order matches the scan's
                // ranking bit for bit.
                c.quality = quality(est, b.platform_idx,
                                    b.socket_contention, b.sockets,
                                    b.speed, slope_);
                c.bucket = &b;
                c.it = b.ids.begin();
                c.id = *c.it;
                c.pos = 0;
                exact_.push_back(c);
                std::push_heap(exact_.begin(), exact_.end(), cursorLess);
            }
        };
        expand(level.open);
        if (filter_.all || filter_.evict)
            expand(level.evict);
        if (filter_.all) {
            for (const auto &[key, list] : level.prio)
                expand(list);
            expand(level.closed);
        } else {
            for (auto it = level.prio.begin();
                 it != level.prio.end() && it->first < filter_.prio_below;
                 ++it)
                expand(it->second);
        }
        auto nit = std::next(lc.it);
        if (nit != platform_order_[lc.platform].end()) {
            LevelCursor nc;
            nc.bound =
                levelBound(est.platform_factor[lc.platform], nit->first);
            nc.platform = lc.platform;
            nc.it = nit;
            pending_.push_back(nc);
            std::push_heap(pending_.begin(), pending_.end(), levelLess);
        }
    }
}

void
MaintainedOrder::dropBucketOf(ServerId sid)
{
    // Between two taken nodes perf_needed and the knob filter are
    // fixed, and every member of a bucket shares the rest of the
    // Unfit/Knob verdict's inputs (OrderSig) — except the priority
    // ledger walk, which adds capacity only when a resident ranks
    // below the filter's prio_below (prio_any).
    OrderBucket &b = order_buckets_[server_bucket_[size_t(sid)]];
    if (b.prio_any < filter_.prio_below)
        return;
    b.dropped_epoch = epoch_;
}

uint64_t
MaintainedOrder::settleDropped(const Candidate *at, bool resume)
{
    // A suspended cursor was parked when the drain reached it, so
    // every member it still holds lies at or after that point and
    // before `at` is emitted: a cursor of better quality than `at`
    // precedes it entirely; one of equal quality (under the order's
    // own comparison) precedes it up to at's id, and the members
    // after that id are still ahead of the walk.
    uint64_t skipped = 0;
    for (OrderCursor &c : suspended_) {
        const std::set<ServerId> &ids = c.bucket->ids;
        if (!at || c.quality != at->first) {
            skipped += ids.size() - c.pos;
            continue;
        }
        auto next = ids.upper_bound(at->second);
        size_t passed = size_t(std::distance(c.it, next));
        skipped += passed;
        if (!resume || next == ids.end())
            continue;
        c.it = next;
        c.pos += passed;
        c.id = *next;
        exact_.push_back(c);
        std::push_heap(exact_.begin(), exact_.end(), cursorLess);
    }
    suspended_.clear();
    if (resume)
        epoch_ = ++drop_epoch_;
    return skipped;
}

#ifdef QUASAR_VERIFY
void
MaintainedOrder::auditIndexCoherence()
{
    ++verify::counters().index_audits;
    size_t ordered_members = 0;
    for (size_t i = 0; i < cluster_.size(); ++i) {
        const sim::Server &srv = cluster_.server(ServerId(i));
        const ServerCacheEntry &cached = cache_[i];
        if (cached.version != srv.version()) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: index entry for server %zu "
                         "is stale after journal replay (entry epoch "
                         "%llu, server epoch %llu) — a mutation was "
                         "not journaled\n",
                         i, (unsigned long long)cached.version,
                         (unsigned long long)srv.version());
            std::abort();
        }
        ServerCacheEntry fresh;
        refreshEntry(srv, registry_, fresh);
        if (fresh.sockets != cached.sockets ||
            fresh.socket_contention != cached.socket_contention ||
            fresh.socket_cores != cached.socket_cores ||
            fresh.free_cores != cached.free_cores ||
            fresh.free_mem != cached.free_mem ||
            fresh.free_storage != cached.free_storage ||
            fresh.speed != cached.speed ||
            fresh.available != cached.available ||
            fresh.be_cores != cached.be_cores ||
            fresh.be_mem != cached.be_mem ||
            fresh.be_storage != cached.be_storage ||
            fresh.platform_idx != cached.platform_idx ||
            fresh.prio_key != cached.prio_key ||
            fresh.prio_any != cached.prio_any) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: index entry for server %zu "
                         "matches the server's change epoch but not "
                         "its state — a placement-relevant mutation "
                         "skipped bumpVersion()\n",
                         i);
            std::abort();
        }
        if (index_primed_) {
            // The maintained order must mirror the cache entry field
            // for field: the server sits in exactly one bucket whose
            // signature bitwise-matches its refreshed state.
            uint32_t slot = i < server_bucket_.size()
                                ? server_bucket_[i]
                                : kNoBucket;
            if (slot == kNoBucket) {
                std::fprintf(stderr,
                             "QUASAR_VERIFY: server %zu missing from "
                             "the maintained candidate order — a "
                             "mutation was not journaled or the order "
                             "update was skipped\n",
                             i);
                std::abort();
            }
            const OrderBucket &b = order_buckets_[slot];
            auto [fresh_cls, fresh_key] = feasibilityClass(fresh);
            if (b.platform_idx != fresh.platform_idx ||
                std::bit_cast<uint64_t>(b.speed) !=
                    std::bit_cast<uint64_t>(fresh.speed) ||
                b.sockets != fresh.sockets ||
                b.socket_contention != fresh.socket_contention ||
                b.cls != fresh_cls || b.prio_key != fresh_key ||
                b.prio_any != fresh.prio_any ||
                b.sig != orderSig(fresh) ||
                b.ids.count(ServerId(i)) == 0) {
                std::fprintf(stderr,
                             "QUASAR_VERIFY: order bucket for server "
                             "%zu disagrees with its refreshed state "
                             "(bucket platform %zu speed %.17g vs "
                             "fresh platform %zu speed %.17g) — the "
                             "incremental order is stale\n",
                             i, b.platform_idx, b.speed,
                             fresh.platform_idx, fresh.speed);
                std::abort();
            }
        }
    }
    if (index_primed_) {
        // Structural sweep: every level holds the buckets that claim
        // it, level_pos back-references are exact, no bucket is empty,
        // and the member total equals the cluster size (no ghost or
        // duplicated entries).
        for (size_t p = 0; p < platform_order_.size(); ++p) {
            for (const auto &[speed, lvl] : platform_order_[p]) {
                if (lvl.empty()) {
                    std::fprintf(stderr,
                                 "QUASAR_VERIFY: empty speed level "
                                 "%.17g on platform %zu in the "
                                 "maintained order\n",
                                 speed, p);
                    std::abort();
                }
                auto check_list =
                    [&](const std::vector<uint32_t> &list,
                        FeasClass cls, int prio_key) {
                        for (size_t j = 0; j < list.size(); ++j) {
                            const OrderBucket &b =
                                order_buckets_[list[j]];
                            if (b.platform_idx != p ||
                                std::bit_cast<uint64_t>(b.speed) !=
                                    std::bit_cast<uint64_t>(speed) ||
                                b.cls != cls ||
                                b.prio_key != prio_key ||
                                b.level_pos != j || b.ids.empty()) {
                                std::fprintf(
                                    stderr,
                                    "QUASAR_VERIFY: order bucket %u "
                                    "misfiled under platform %zu "
                                    "speed %.17g class %d\n",
                                    list[j], p, speed, int(cls));
                                std::abort();
                            }
                            ordered_members += b.ids.size();
                        }
                    };
                check_list(lvl.open, FeasClass::Open, kNoPrio);
                check_list(lvl.evict, FeasClass::Evict, kNoPrio);
                for (const auto &[key, list] : lvl.prio) {
                    if (list.empty()) {
                        std::fprintf(stderr,
                                     "QUASAR_VERIFY: empty prio-class "
                                     "list (key %d) on platform %zu "
                                     "speed %.17g\n",
                                     key, p, speed);
                        std::abort();
                    }
                    check_list(list, FeasClass::Prio, key);
                }
                check_list(lvl.closed, FeasClass::Closed, kNoPrio);
            }
        }
        if (ordered_members != cluster_.size()) {
            std::fprintf(stderr,
                         "QUASAR_VERIFY: maintained order holds %zu "
                         "members for %zu servers in the cluster\n",
                         ordered_members, cluster_.size());
            std::abort();
        }
    }
}
#endif

} // namespace

void
addPriorityEvictable(const sim::Server &srv,
                     const workload::WorkloadRegistry *registry,
                     int priority, int &cores, double &memory_gb,
                     double &storage_gb)
{
    if (!registry)
        return;
    for (const sim::TaskShare &t : srv.tasks()) {
        if (t.best_effort)
            continue; // the entry already totals the best-effort pool
        if (!registry->contains(t.workload))
            continue;
        if (registry->get(t.workload).priority < priority) {
            cores += t.cores;
            memory_gb += t.memory_gb;
            storage_gb += t.storage_gb;
        }
    }
}

double
candidateQuality(const WorkloadEstimate &est, const ServerCacheEntry &e,
                 double slope)
{
    return quality(est, e.platform_idx, e.socket_contention, e.sockets,
                   e.speed, slope);
}

std::unique_ptr<CandidateOrder>
CandidateOrder::make(bool full_rescan, const sim::Cluster &cluster,
                     const workload::WorkloadRegistry *registry,
                     double slope)
{
    if (full_rescan)
        return std::make_unique<SortedScan>(cluster, registry, slope);
    return std::make_unique<MaintainedOrder>(cluster, registry, slope);
}

} // namespace quasar::core
