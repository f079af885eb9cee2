#include "core/scheduler.hh"

#include <algorithm>
#include <cassert>
#include <limits>

#include "stats/timing.hh"

#ifdef QUASAR_VERIFY
// Sanctioned upward edge: the shadow oracle hooks in under
// QUASAR_VERIFY only. quasar-lint: allow(layering)
#include "verify/verify.hh"
#endif

namespace quasar::core
{

using workload::FrameworkKnobs;
using workload::Workload;

int
Allocation::totalCores() const
{
    int n = 0;
    for (const AllocationNode &node : nodes)
        n += node.cores;
    return n;
}

double
Allocation::totalMemoryGb() const
{
    double m = 0.0;
    for (const AllocationNode &node : nodes)
        m += node.memory_gb;
    return m;
}

namespace
{

/** Max nodes per workload. */
constexpr int kMaxNodes = 100;
/** Keep per-node configs within this fraction of the best one. */
constexpr double kNodePerfSlack = 0.95;

/**
 * Socket-selection rule (DESIGN.md §13). Aware: highest predicted
 * multiplier, ties broken toward fewer homed cores, then the lower
 * socket id; blind: least homed cores, then lower id. Deterministic
 * on bitwise-equal inputs, so it replays identically in both modes.
 */
int
chooseSocket(
    const WorkloadEstimate &est,
    const std::array<interference::IVector, topology::kMaxSockets>
        &views,
    const std::array<int, topology::kMaxSockets> &homed, int sockets,
    bool socket_aware, double slope)
{
    if (sockets <= 1)
        return 0;
    int best = 0;
    if (socket_aware) {
        double best_m = est.interferenceMultiplier(views[0], slope);
        for (int s = 1; s < sockets; ++s) {
            double m =
                est.interferenceMultiplier(views[size_t(s)], slope);
            if (m > best_m ||
                (m == best_m &&
                 homed[size_t(s)] < homed[size_t(best)])) {
                best = s;
                best_m = m;
            }
        }
        return best;
    }
    for (int s = 1; s < sockets; ++s)
        if (homed[size_t(s)] < homed[size_t(best)])
            best = s;
    return best;
}

} // namespace

const EstimateTable &
noEstimates()
{
    static const EstimateTable empty;
    return empty;
}

bool
GreedyScheduler::evictable(const sim::TaskShare &victim,
                           const workload::Workload &w) const
{
    if (victim.best_effort)
        return true;
    // Priority preemption (Sec. 4.4): only with registry access, and
    // only for strictly lower priority.
    if (!registry_ || !registry_->contains(victim.workload))
        return false;
    return registry_->get(victim.workload).priority < w.priority;
}

double
GreedyScheduler::nodeNeed(const WorkloadEstimate &est, double target,
                          const std::vector<double> &node_perfs)
{
    int n_next = int(node_perfs.size()) + 1;
    double eff = est.scaleOutSpeedupAt(n_next) / double(n_next);
    double sum_now = 0.0;
    for (double v : node_perfs)
        sum_now += v;
    double needed = eff > 0.0 ? target / eff - sum_now
                              : std::numeric_limits<double>::infinity();
    return std::max(needed, 1e-9);
}

bool
GreedyScheduler::planEvictions(
    const sim::Server &srv, const ServerCacheEntry &e, const Workload &w,
    const NodePick &pick, bool may_evict,
    std::vector<std::pair<ServerId, WorkloadId>> &planned) const
{
    const int base_free_cores = e.free_cores;
    const double base_free_mem = e.free_mem;
    if (!(may_evict && (pick.cores > base_free_cores ||
                        pick.memory_gb > base_free_mem + 1e-9)))
        return true; // fits the raw free capacity (or may not evict)
    int need_cores = pick.cores - base_free_cores;
    double need_mem = pick.memory_gb - base_free_mem;
    // Evict best-effort first, then ascending priority, and larger
    // shares before smaller ones.
    std::vector<const sim::TaskShare *> be;
    for (const sim::TaskShare &t : srv.tasks())
        if (evictable(t, w))
            be.push_back(&t);
    auto prio = [&](const sim::TaskShare *t) {
        if (t->best_effort || !registry_ ||
            !registry_->contains(t->workload))
            return std::numeric_limits<int>::min();
        return registry_->get(t->workload).priority;
    };
    std::sort(be.begin(), be.end(), [&](const auto *a, const auto *b) {
        if (prio(a) != prio(b))
            return prio(a) < prio(b);
        return a->cores > b->cores;
    });
    for (const sim::TaskShare *t : be) {
        if (need_cores <= 0 && need_mem <= 1e-9)
            break;
        planned.emplace_back(srv.id(), t->workload);
        need_cores -= t->cores;
        need_mem -= t->memory_gb;
    }
    return !(need_cores > 0 || need_mem > 1e-9);
}

double
GreedyScheduler::nodeCost(const sim::Server &srv, const NodePick &pick)
{
    return srv.platform().cost_per_hour * double(pick.cores) /
           double(srv.platform().cores);
}

double
GreedyScheduler::serverQuality(const sim::Server &srv,
                               const WorkloadEstimate &est) const
{
    // Quality = platform speedup x predicted interference multiplier.
    // Degraded machines rank (and predict) proportionally lower; a
    // down machine is worth nothing. Public entry point (the manager
    // scores live placements with it between decisions): replay the
    // journal first so the view reflects any mutation since the last
    // refresh.
    order_->refreshIndex();
    ServerCacheEntry scratch;
    return candidateQuality(est, order_->serverView(srv, scratch),
                            cfg_.slope_guess);
}

std::vector<Candidate>
GreedyScheduler::rankedCandidates(const WorkloadEstimate &est,
                                  const CandidateFilter &filter) const
{
    std::vector<Candidate> out;
    out.reserve(cluster_.size());
    order_->beginDrain(est, filter);
    while (auto cand = order_->nextCandidate())
        out.push_back(*cand);
    return out;
}

GreedyScheduler::NodePick
GreedyScheduler::pickNodeConfig(const sim::Server &srv,
                                const ServerCacheEntry &e,
                                const Workload &w,
                                const WorkloadEstimate &est,
                                bool count_evictable,
                                double perf_needed) const
{
    NodePick pick;
    const size_t p_idx = e.platform_idx;
    int free_cores = e.free_cores;
    double free_mem = e.free_mem;
    double free_storage = e.free_storage;
    // The socket-selection step: the greedy walk picks (server,
    // socket), predicting node perf from the chosen socket's view.
    // Flat servers always choose socket 0, reproducing the
    // pre-topology multiplier bit for bit.
    pick.socket = chooseSocket(est, e.socket_contention, e.socket_cores,
                               e.sockets, cfg_.socket_aware,
                               cfg_.slope_guess);
    pick.interf = est.interferenceMultiplier(
                      e.socket_contention[size_t(pick.socket)],
                      cfg_.slope_guess) *
                  e.speed;
    const double interf = pick.interf;
    if (count_evictable) {
        free_cores += e.be_cores;
        free_mem += e.be_mem;
        free_storage += e.be_storage;
        addPriorityEvictable(srv, registry_, w.priority, free_cores,
                             free_mem, free_storage);
    }
    if (free_cores < 1 || free_storage < w.storage_gb_per_node)
        return pick;

    // Scan feasible columns for the best achievable node perf.
    double best_perf = 0.0;
    for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
        const auto &cfg = est.scale_up_grid[c];
        if (cfg.cores > free_cores || cfg.memory_gb > free_mem + 1e-9)
            continue;
        best_perf = std::max(best_perf,
                             est.nodePerf(p_idx, c) * interf);
    }
    if (best_perf <= 0.0)
        return pick;

    // Right-size: the cheapest column whose predicted perf reaches the
    // goal (the residual target, capped by what the server can give).
    double goal = std::min(best_perf, perf_needed);
    if (!cfg_.scale_up_first) {
        // Scale-out-first ablation: spread small slices across nodes.
        goal = std::min(goal, 0.35 * best_perf);
    }
    double threshold = kNodePerfSlack * goal;

    bool found = false;
    for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
        const auto &cfg = est.scale_up_grid[c];
        if (cfg.cores > free_cores || cfg.memory_gb > free_mem + 1e-9)
            continue;
        double perf = est.nodePerf(p_idx, c) * interf;
        if (perf + 1e-12 < threshold)
            continue;
        bool better;
        if (!found) {
            better = true;
        } else if (cfg.cores != pick.cores) {
            better = cfg.cores < pick.cores;
        } else if (cfg.memory_gb != pick.memory_gb) {
            better = cfg.memory_gb < pick.memory_gb;
        } else {
            better = perf > pick.perf;
        }
        if (better) {
            pick.col = c;
            pick.cores = cfg.cores;
            pick.memory_gb = cfg.memory_gb;
            pick.perf = perf;
            found = true;
        }
    }
    pick.valid = found;
    return pick;
}

bool
GreedyScheduler::residentsTolerate(const sim::Server &srv,
                                   const WorkloadEstimate &est,
                                   double cores, int socket) const
{
    // Per-socket view of the newcomer's caused pressure: full
    // strength on its home socket, attenuated by the cross-socket
    // factor elsewhere, each over that socket's capacity. The flat
    // case multiplies by exactly 1.0 (no rounding), keeping the
    // pre-topology arithmetic.
    const interference::IVector &cross = srv.crossSocketFactor();
    std::array<interference::IVector, topology::kMaxSockets> added{};
    for (int s = 0; s < srv.numSockets(); ++s) {
        const auto &cap = srv.socketCapacity(s);
        for (size_t i = 0; i < interference::kNumSources; ++i) {
            double atten = s == socket ? 1.0 : cross[i];
            added[size_t(s)][i] =
                cap[i] > 0.0
                    ? est.caused_per_core[i] * cores * atten / cap[i]
                    : 0.0;
        }
    }
    for (const sim::TaskShare &t : srv.tasks()) {
        if (t.best_effort)
            continue; // evictable anyway; protected residents only
        auto res = estimates_.find(t.workload);
        if (res == estimates_.end())
            continue;
        interference::IVector now = srv.contentionFor(t.workload);
        const interference::IVector &add = added[size_t(t.socket)];
        double loss = 1.0;
        for (size_t i = 0; i < interference::kNumSources; ++i) {
            double excess = now[i] + add[i] - res->second.tolerated[i];
            if (excess > 0.0)
                loss *= std::max(0.05,
                                 1.0 - cfg_.slope_guess * excess);
        }
        if (1.0 - loss > cfg_.max_resident_loss)
            return false;
    }
    return true;
}

std::optional<Allocation>
GreedyScheduler::allocate(const Workload &w, const WorkloadEstimate &est,
                          double required_perf, bool may_evict,
                          bool spread) const
{
    std::optional<Allocation> decision =
        allocateImpl(w, est, required_perf, may_evict, spread);
#ifdef QUASAR_VERIFY
    // Shadow scheduler oracle: every maintained-order decision is
    // re-derived through the sorted full scan; any divergence aborts.
    // Full-scan decisions are the oracle, so they are never shadowed
    // (also what makes this non-recursive).
    if (!cfg_.full_rescan)
        verify::shadowCheckAllocation(*this, w, est, required_perf,
                                      may_evict, spread, decision);
#endif
    return decision;
}

NodeReject
GreedyScheduler::nodeVerdict(
    const sim::Server &srv, const ServerCacheEntry &e, const Workload &w,
    const WorkloadEstimate &est, WalkState &so_far, bool may_evict,
    NodePick &pick,
    std::vector<std::pair<ServerId, WorkloadId>> &planned) const
{
    pick = pickNodeConfig(srv, e, w, est, may_evict,
                          nodeNeed(est, so_far.target, so_far.node_perfs));
    if (!pick.valid)
        return NodeReject::Unfit;
    if (so_far.knob_filter &&
        !(est.scale_up_grid[pick.col].knobs == *so_far.knob_filter)) {
        // Keep one knob setting across the job: re-scan restricted to
        // matching columns by rejecting mismatches.
        bool fixed = false;
        for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
            const auto &cfg = est.scale_up_grid[c];
            if (!(cfg.knobs == *so_far.knob_filter))
                continue;
            if (cfg.cores != pick.cores || cfg.memory_gb != pick.memory_gb)
                continue;
            pick.col = c;
            pick.perf = est.nodePerf(e.platform_idx, c) * pick.interf;
            fixed = true;
            break;
        }
        if (!fixed)
            return NodeReject::Knob;
    }
    if (!residentsTolerate(srv, est, pick.cores, pick.socket))
        return NodeReject::Intolerant;

    // Diminishing returns: when this node's marginal contribution
    // falls well below what it would deliver standalone, the
    // scale-out knee has passed and further servers are wasted
    // (checked before planning evictions so no one is evicted for a
    // node that is never placed).
    std::vector<double> &perfs = so_far.node_perfs;
    if (!perfs.empty() && pick.perf > 0.0) {
        perfs.push_back(pick.perf);
        double with_node = est.jobPerf(perfs);
        perfs.pop_back();
        double gain = with_node - est.jobPerf(perfs);
        if (gain < cfg_.min_marginal_efficiency * pick.perf)
            return NodeReject::Knee;
    }

    // Evictions go to the caller's list, committed only once the node
    // clears every check: nothing may land in the allocation for a
    // node rejected later (cost cap) or for a server revisited by the
    // relaxed spreading pass, or the same share would be consumed
    // twice in one schedule call.
    if (!planEvictions(srv, e, w, pick, may_evict, planned))
        return NodeReject::Evict;

    // Cost target (Sec. 4.4): never exceed the spending cap.
    if (w.cost_cap_per_hour > 0.0 &&
        so_far.cost + nodeCost(srv, pick) > w.cost_cap_per_hour)
        return NodeReject::Cost;
    return NodeReject::None;
}

NodeReject
GreedyScheduler::firstNodeVerdict(const sim::Server &srv,
                                  const Workload &w,
                                  const WorkloadEstimate &est,
                                  double required_perf,
                                  bool may_evict) const
{
    // allocateImpl's candidate test with no node chosen yet: the
    // source's rank-time filter, the hosting check, then the walk's
    // own nodeVerdict with no nodes, no knob filter and nothing spent.
    ServerCacheEntry scratch;
    const ServerCacheEntry &e = order_->serverView(srv, scratch);
    if (!order_->admits(srv, e, CandidateFilter::of(w, may_evict, registry_)))
        return NodeReject::Closed;
    if (srv.hosts(w.id))
        return NodeReject::Hosted;
    WalkState first;
    first.target = std::max(required_perf, 1e-9) * cfg_.headroom;
    NodePick pick;
    std::vector<std::pair<ServerId, WorkloadId>> planned;
    return nodeVerdict(srv, e, w, est, first, may_evict, pick, planned);
}

std::optional<Allocation>
GreedyScheduler::allocateImpl(const Workload &w,
                              const WorkloadEstimate &est,
                              double required_perf, bool may_evict,
                              bool spread) const
{
    assert(est.scale_up_grid.size() == est.scale_up_perf.size());
    WalkState so_far;
    so_far.target = std::max(required_perf, 1e-9) * cfg_.headroom;
    const int max_nodes =
        workload::isDistributed(w.type)
            ? std::min<int>(kMaxNodes, int(cluster_.size()))
            : 1;

    // Rank candidate servers by decreasing quality: the source drains
    // exactly the servers the rank-time filter admits (down machines
    // and servers without a free or evictable core never appear),
    // best first, ties by ascending id.
    {
        stats::ScopedTimer timer(timing_.rank);
        order_->beginDrain(est, CandidateFilter::of(w, may_evict, registry_));
    }

    stats::ScopedTimer timer(timing_.place);
    Allocation alloc;
    FrameworkKnobs chosen_knobs;
    ServerCacheEntry scratch;
    std::vector<char> zone_used(
        size_t(std::max(cluster_.numFaultZones(), 1)), 0);

    // With fault-zone spreading the candidates are walked twice: the
    // first pass only takes servers in fresh zones; the second pass
    // rewinds through `memo` and relaxes the constraint if the target
    // is still unmet. A server already chosen in pass one is never
    // picked again (each candidate contributes at most one node per
    // allocation). The rewind needs every candidate in the memo, so a
    // spreading walk drops no bucket.
    std::vector<Candidate> memo;
    std::optional<Candidate> last_drawn;
    const int passes = spread ? 2 : 1;
    bool done = false;
    for (int pass = 0; pass < passes && !done; ++pass) {
        for (size_t i = 0;; ++i) {
            if (int(alloc.nodes.size()) >= max_nodes) {
                done = true;
                break;
            }
            double predicted = est.jobPerf(so_far.node_perfs);
            if (predicted >= so_far.target) {
                done = true;
                break;
            }

            const bool fresh = i >= memo.size();
            std::optional<Candidate> cand =
                fresh ? order_->nextCandidate() : memo[i];
            if (!cand) {
                last_drawn.reset();
                break; // candidates exhausted; maybe relax zones
            }
            if (spread && fresh)
                memo.push_back(*cand);
            last_drawn = cand;
            ++walk_.candidates;
            const ServerId sid = cand->second;
            const sim::Server &srv = cluster_.server(sid);
            bool already_chosen = srv.hosts(w.id);
            for (const AllocationNode &n : alloc.nodes)
                already_chosen = already_chosen || n.server == sid;
            if (already_chosen) {
                ++walk_.rejected[size_t(NodeReject::Hosted)];
                continue;
            }
            if (spread && pass == 0 && zone_used[size_t(srv.faultZone())]) {
                // First pass: fresh zones only.
                ++walk_.rejected[size_t(NodeReject::Zone)];
                continue;
            }
            const ServerCacheEntry &e = order_->serverView(srv, scratch);
            NodePick pick;
            std::vector<std::pair<ServerId, WorkloadId>> planned;
            NodeReject r = nodeVerdict(srv, e, w, est, so_far, may_evict,
                                       pick, planned);
            if (r != NodeReject::None) {
                ++walk_.rejected[size_t(r)];
                if (!spread &&
                    (r == NodeReject::Unfit || r == NodeReject::Knob))
                    order_->dropBucketOf(sid);
                if (r == NodeReject::Knee) {
                    done = true;
                    break;
                }
                continue;
            }
            if (w.cost_cap_per_hour > 0.0)
                so_far.cost += nodeCost(srv, pick);

            ++walk_.nodes;
            // A new node moves perf_needed: close the drop epoch.
            walk_.skipped += order_->settleDropped(&*cand, true);
            if (alloc.nodes.empty()) {
                chosen_knobs = est.scale_up_grid[pick.col].knobs;
                if (w.type == workload::WorkloadType::Analytics)
                    so_far.knob_filter = &chosen_knobs;
            }
            alloc.evictions.insert(alloc.evictions.end(),
                                   planned.begin(), planned.end());
            alloc.nodes.push_back({sid, pick.col, pick.cores,
                                   pick.memory_gb, pick.perf,
                                   pick.socket});
            so_far.node_perfs.push_back(pick.perf);
            zone_used[size_t(srv.faultZone())] = 1;
        }
    }

    // Members of dropped buckets that precede where the walk stopped
    // were passed over (all of them when the drain ran dry).
    walk_.skipped +=
        order_->settleDropped(last_drawn ? &*last_drawn : nullptr, false);

    if (alloc.nodes.empty())
        return std::nullopt;

    alloc.knobs = chosen_knobs;
    alloc.predicted_perf = est.jobPerf(so_far.node_perfs);
    alloc.degraded = alloc.predicted_perf + 1e-9 <
                     required_perf * cfg_.headroom * kNodePerfSlack;
    return alloc;
}

} // namespace quasar::core
