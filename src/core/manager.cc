#include "core/manager.hh"

#include <algorithm>
#include <cmath>

#include "workload/queueing.hh"

#ifdef QUASAR_VERIFY
// Sanctioned upward edge: the skipped-retry oracle hooks in under
// QUASAR_VERIFY only. quasar-lint: allow(layering)
#include "verify/verify.hh"
#endif

namespace quasar::core
{

using workload::TargetKind;
using workload::Workload;
using workload::WorkloadType;

namespace
{

/** Share of active workloads sampled per proactive pass (Sec. 4.1). */
constexpr double kProactiveFraction = 0.2;
/** Feedback when |measured/predicted - 1| exceeds this. */
constexpr double kFeedbackDeviation = 0.15;
/** Reclassify+reschedule after this many failed adjustments. */
constexpr int kUnderperfStrikes = 3;
/** Minimum time between growth adjustments of one workload, seconds
 *  (conservative adaptation; prevents scale-out churn). */
constexpr double kAdjustCooldownS = 30.0;
/** Minimum time between shrinks (lazier than growth so the allocation
 *  does not oscillate around the target). */
constexpr double kShrinkCooldownS = 180.0;
/** A fresh placement must beat the current one by this factor before
 *  a reschedule abandons held resources. */
constexpr double kRescheduleHysteresis = 1.10;
/** Minimum time between reclassify+reschedule attempts for one
 *  workload (each costs a fresh profiling pass). */
constexpr double kRescheduleCooldownS = 300.0;
/** Fraction of required perf below which a best-effort workload
 *  queues instead of admitting. */
constexpr double kAdmitFraction = 0.5;
/** Migration bandwidth for stateful scale-out, GB/s. */
constexpr double kMigrationGbps = 1.0;
/** Capacity multiplier during a migration window. */
constexpr double kMigrationFactor = 0.9;
/** Retry backoff for workloads displaced by machine failures that
 *  cannot be re-placed immediately (capacity temporarily gone): first
 *  retry after kFailureBackoffS, doubling up to the max. */
constexpr double kFailureBackoffS = 20.0;
constexpr double kFailureBackoffMaxS = 160.0;

/** The scale-up grid column nearest to a share's size (cores, then a
 *  tenth of the memory difference; the first column wins ties). */
size_t
nearestColumn(const WorkloadEstimate &est, const sim::TaskShare &share)
{
    size_t best_col = 0;
    double best_score = 1e18;
    for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
        const auto &cfg = est.scale_up_grid[c];
        double score = std::fabs(double(cfg.cores - share.cores)) +
                       0.1 * std::fabs(cfg.memory_gb - share.memory_gb);
        if (score < best_score) {
            best_score = score;
            best_col = c;
        }
    }
    return best_col;
}

} // namespace

QuasarManager::QuasarManager(sim::Cluster &cluster,
                             workload::WorkloadRegistry &registry,
                             QuasarConfig cfg)
    : cluster_(cluster), registry_(registry), cfg_(cfg),
      profiler_(cluster.catalog(), cfg.profiler),
      classifier_(profiler_, cfg.classifier, cfg.seed ^ 0xC1A55),
      scheduler_(cluster, cfg.scheduler, &registry, estimates_),
      monitor_(cluster, registry, cfg.monitor,
               stats::Rng(cfg.seed ^ 0x3017)),
      overload_(cfg.overload), rng_(cfg.seed)
{
    // The aging guard only rides along with overload control: with it
    // off, queue behavior (and every committed placement hash) stays
    // exactly as before.
    if (cfg_.overload.enabled)
        admission_.setAgingLimit(cfg_.overload.aging_limit_s);
}

void
QuasarManager::seedOffline(workload::WorkloadFactory &factory,
                           size_t count, double t)
{
    // A representative spread of the workload families (paper: 20-30
    // applications characterized exhaustively offline).
    std::vector<Workload> seeds;
    static const char *families[] = {"spec-int", "spec-fp", "parsec",
                                     "splash2", "minebench", "specjbb"};
    for (size_t i = 0; i < count; ++i) {
        switch (i % 5) {
          case 0:
            seeds.push_back(factory.hadoopJob(
                "seed-hadoop", factory.rng().uniform(5.0, 200.0)));
            break;
          case 1:
            seeds.push_back(factory.sparkJob(
                "seed-spark", factory.rng().uniform(5.0, 60.0)));
            break;
          case 2: {
            double qps = factory.rng().uniform(50e3, 300e3);
            seeds.push_back(factory.memcachedService(
                "seed-memcached", qps, 200e-6, 50.0,
                std::make_shared<tracegen::FlatLoad>(qps)));
            break;
          }
          case 3: {
            double qps = factory.rng().uniform(100.0, 400.0);
            seeds.push_back(factory.webService(
                "seed-web", qps, 0.1,
                std::make_shared<tracegen::FlatLoad>(qps)));
            break;
          }
          default:
            seeds.push_back(factory.singleNodeJob(
                "seed-single", families[i % 6]));
            break;
        }
    }
    seedOffline(seeds, t);
}

void
QuasarManager::seedOffline(const std::vector<Workload> &seeds, double t)
{
    classifier_.seedOffline(seeds, t);
}

double
QuasarManager::requiredPerf(const Workload &w, double t) const
{
    switch (w.target.kind) {
      case TargetKind::CompletionTime: {
        double deadline = w.arrival_time + w.target.completion_time_s;
        double remaining_work = std::max(w.total_work - w.work_done,
                                         0.0);
        double remaining_time =
            std::max(deadline - t, 0.05 * w.target.completion_time_s);
        return remaining_work / remaining_time;
      }
      case TargetKind::QpsLatency: {
        // Capacity needed so the offered load meets the tail QoS:
        // queueing headroom plus a 15% buffer so the service rides
        // above the latency knee rather than on it. With predictive
        // sizing, capacity is provisioned for the forecast load a
        // little ahead, so ramps are absorbed instead of chased.
        double offered = w.offeredQps(t);
        if (cfg_.predict_lead_s > 0.0) {
            auto it = tracked_.find(w.id);
            if (it != tracked_.end() && it->second.predictor.warmedUp())
                offered = std::max(offered,
                                   it->second.predictor.predict(
                                       t + cfg_.predict_lead_s));
        }
        offered = std::max(offered, 0.05 * w.target.qps);
        double headroom = -std::log(0.01) / w.target.latency_qos_s;
        // The autoscaler's demand boost multiplies the requirement,
        // so the adapt loop (scale up / out, shrink suppression)
        // enacts the PI controller's output through the existing
        // machinery (boost is 1.0 with the controller off).
        return (1.15 * offered + headroom) * overload_.boostFor(w.id);
      }
      case TargetKind::Ips:
        return w.target.rate;
    }
    return w.target.rate;
}

WorkloadEstimate &
QuasarManager::estimateForWrite(WorkloadId id)
{
    memo_.forget(id);
    return estimates_[id];
}

void
QuasarManager::forget(WorkloadId id)
{
    tracked_.erase(id);
    estimates_.erase(id);
    browned_out_.erase(id);
    memo_.forget(id);
    overload_.forget(id);
    admission_.abandon(id);
}

void
QuasarManager::onSubmit(WorkloadId id, double t)
{
    Workload &w = registry_.get(id);
    estimateForWrite(id) = profileAndClassify(w, t);

    // Backpressure at the door: while the cluster is pressured,
    // sheddable classes queue with exponential backoff instead of
    // being scheduled into an already-drowning cluster. Services are
    // never gated here.
    if (overload_.shouldDefer(w)) {
        overload_.noteDefer(id, t);
        ++stats_.overload_deferred;
        admission_.enqueueWithBackoff(id, t,
                                      cfg_.overload.defer_base_s,
                                      cfg_.overload.defer_max_s);
        ++stats_.queued;
        return;
    }

    if (!trySchedule(id, t, true))
        ++stats_.queued;
}

bool
QuasarManager::trySchedule(WorkloadId id, double t, bool requeue_on_fail)
{
    Workload &w = registry_.get(id);
    const WorkloadEstimate &est = estimates_.at(id);

    double required = requiredPerf(w, t);
    // Re-placement after a failure spreads latency-critical replicas
    // across fault zones so a repeat outage of one rack/PDU cannot
    // take the whole service down again (Sec. 4.4). A workload without
    // a record was never displaced.
    auto rec = tracked_.find(id);
    const bool spread = rec != tracked_.end() &&
                        rec->second.displaced_at.has_value() &&
                        workload::isLatencyCritical(w.type);
    if (retryProvenFutile(w, est, required, spread)) {
        ++stats_.retries_skipped;
        if (requeue_on_fail)
            admission_.enqueue(id, t);
        return false;
    }
    std::optional<Allocation> alloc;
    // Eviction-planning rejections of this call: the one reason a
    // failure may not hold at a larger requirement (failure_memo.hh).
    uint64_t evict_rejects = 0;
    {
        stats::ScopedTimer timer(stats_.schedule_time);
        const uint64_t before = scheduler_.walkCounts()[NodeReject::Evict];
        alloc = scheduler_.allocate(w, est, required, !w.best_effort,
                                    spread);
        evict_rejects = scheduler_.walkCounts()[NodeReject::Evict] - before;
    }
    if (!admits(w, alloc, required)) {
        // Nothing placeable, or a single-node pick too weak to admit:
        // both are provable from the journal next time. A too-weak
        // multi-node allocation is not, so it leaves no record.
        if (!cfg_.failure_memo || (alloc && workload::isDistributed(w.type)))
            memo_.forget(id);
        else
            memo_.noteFailure(id, cluster_.journal(), required,
                              alloc ? alloc->nodes.front().server
                                    : FailureMemo::kNoAnchor,
                              evict_rejects == 0);
        if (requeue_on_fail)
            admission_.enqueue(id, t);
        return false;
    }
    memo_.forget(id);
    applyAllocation(w, *alloc, t);
    admission_.admitted(id, t);
    ++stats_.scheduled;
    noteRecovered(id, t);
    return true;
}

bool
QuasarManager::admits(const Workload &w,
                      const std::optional<Allocation> &alloc,
                      double required) const
{
    // Place the best allocation available and let monitoring adjust
    // it ("get as close as possible to the constraint", Sec. 3.3);
    // admission control only holds workloads for which no resources
    // exist at all, or best-effort tasks that would run far below
    // a useful rate.
    return alloc.has_value() &&
           (!w.best_effort ||
            alloc->predicted_perf >= kAdmitFraction * required);
}

bool
QuasarManager::retryProvenFutile(const Workload &w,
                                 const WorkloadEstimate &est,
                                 double required, bool spread)
{
    if (!cfg_.failure_memo || !memo_.recorded(w.id))
        return false;
    stats::ScopedTimer timer(stats_.retry_proof_time);
    const bool futile = memo_.provenFutile(
        w.id, cluster_.journal(), required, [&](ServerId sid) {
            return scheduler_.firstNodeVerdict(cluster_.server(sid), w,
                                               est, required,
                                               !w.best_effort);
        });
#ifdef QUASAR_VERIFY
    if (futile)
        verify::checkSkippedRetry(
            scheduler_, w, est, required, !w.best_effort, spread,
            [&](const std::optional<Allocation> &alloc) {
                return admits(w, alloc, required);
            });
#else
    (void)spread;
#endif
    return futile;
}

void
QuasarManager::noteRecovered(WorkloadId id, double t)
{
    auto it = tracked_.find(id);
    if (it == tracked_.end() || !it->second.displaced_at)
        return;
    recovery_times_.add(t - *it->second.displaced_at);
    it->second.displaced_at.reset();
    ++stats_.recoveries;
}

WorkloadEstimate
QuasarManager::profileAndClassify(Workload &w, double t)
{
    profiling::ProfilingData data;
    WorkloadEstimate est;
    {
        stats::ScopedTimer timer(stats_.classify_time);
        {
            stats::ScopedTimer profile_timer(stats_.profile_time);
            data = profiler_.profile(w, t, rng_);
        }
        est = classifier_.classify(w, data);
    }
    return est;
}

void
QuasarManager::evictAndRequeue(sim::Server &srv, WorkloadId victim,
                               double t)
{
    srv.remove(victim);
    ++stats_.evictions;
    if (!registry_.get(victim).completed && !admission_.contains(victim))
        admission_.enqueue(victim, t);
}

void
QuasarManager::applyAllocation(Workload &w, const Allocation &alloc,
                               double t)
{
    // Evict best-effort residents first; they go back to the queue.
    for (const auto &[sid, victim] : alloc.evictions)
        evictAndRequeue(cluster_.server(sid), victim, t);
    w.active_knobs = alloc.knobs;
    for (const AllocationNode &node : alloc.nodes) {
        sim::TaskShare share;
        share.workload = w.id;
        share.cores = node.cores;
        share.memory_gb = node.memory_gb;
        share.storage_gb = w.storage_gb_per_node;
        share.caused = w.causedPressure(t, node.cores);
        share.best_effort = w.best_effort;
        share.socket = node.socket;
        cluster_.server(node.server).place(share);
    }
    w.last_progress_update = t;
}

void
QuasarManager::releaseWorkload(WorkloadId id)
{
    cluster_.removeEverywhere(id);
}

double
QuasarManager::predictCurrent(const Workload &w,
                              const WorkloadEstimate &est) const
{
    std::vector<double> node_perfs;
    for (ServerId sid : cluster_.serversHosting(w.id)) {
        const sim::Server &srv = cluster_.server(sid);
        size_t col = nearestColumn(est, *srv.share(w.id));
        double interf = est.interferenceMultiplier(
            srv.contentionFor(w.id), scheduler_.config().slope_guess);
        node_perfs.push_back(est.nodePerf(srv.platformIndex(), col) *
                             interf * srv.speedFactor());
    }
    return est.jobPerf(node_perfs);
}

bool
QuasarManager::tryPartition(Workload &w, const WorkloadEstimate &est)
{
    bool granted = false;
    for (ServerId sid : cluster_.serversHosting(w.id)) {
        sim::Server &srv = cluster_.server(sid);
        auto contention = srv.contentionFor(w.id);
        for (size_t i = 0; i < interference::kNumSources; ++i) {
            double excess = contention[i] - est.tolerated[i];
            // Only worth the ~5% partition overhead when the
            // estimated interference loss is clearly larger.
            if (excess * scheduler_.config().slope_guess > 0.10) {
                if (srv.setIsolation(w.id, interference::sourceAt(i),
                                     true)) {
                    granted = true;
                    ++stats_.partitions_granted;
                }
            }
        }
    }
    return granted;
}

bool
QuasarManager::tryScaleUp(Workload &w, const WorkloadEstimate &est,
                          double required, double t)
{
    bool changed = false;
    for (ServerId sid : cluster_.serversHosting(w.id)) {
        if (predictCurrent(w, est) >= required)
            break;
        sim::Server &srv = cluster_.server(sid);
        const sim::TaskShare *share = srv.share(w.id);
        const size_t p_idx = srv.platformIndex();

        int budget_cores = share->cores + srv.coresFree();
        double budget_mem = share->memory_gb + srv.memoryFree();
        // Best-effort residents are evictable headroom for a primary
        // workload's in-place growth.
        std::vector<WorkloadId> evictable;
        if (!w.best_effort) {
            for (const sim::TaskShare &task : srv.tasks()) {
                if (task.best_effort) {
                    budget_cores += task.cores;
                    budget_mem += task.memory_gb;
                    evictable.push_back(task.workload);
                }
            }
        }
        double interf = est.interferenceMultiplier(
            srv.contentionFor(w.id), scheduler_.config().slope_guess);

        // Find the best feasible strictly-larger configuration.
        double cur_perf = 0.0, best_perf = 0.0;
        int best_cores = share->cores;
        double best_mem = share->memory_gb;
        for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
            const auto &cfg = est.scale_up_grid[c];
            if (cfg.cores > budget_cores ||
                cfg.memory_gb > budget_mem + 1e-9)
                continue;
            double perf = est.nodePerf(p_idx, c) * interf;
            if (cfg.cores == share->cores &&
                cfg.memory_gb == share->memory_gb)
                cur_perf = std::max(cur_perf, perf);
            if (cfg.cores >= share->cores &&
                cfg.memory_gb >= share->memory_gb - 1e-9 &&
                perf > best_perf) {
                best_perf = perf;
                best_cores = cfg.cores;
                best_mem = cfg.memory_gb;
            }
        }
        if (best_perf > cur_perf * 1.05 &&
            (best_cores != share->cores ||
             best_mem != share->memory_gb)) {
            // Evict best-effort tasks until the resize fits.
            for (WorkloadId victim : evictable) {
                if (best_cores - share->cores <= srv.coresFree() &&
                    best_mem - share->memory_gb <=
                        srv.memoryFree() + 1e-9)
                    break;
                evictAndRequeue(srv, victim, t);
            }
            if (srv.resize(w.id, best_cores, best_mem)) {
                changed = true;
                ++stats_.scale_up_adjustments;
            }
        }
    }
    return changed;
}

bool
QuasarManager::tryScaleOut(Workload &w, const WorkloadEstimate &est,
                           double required, double t)
{
    if (!workload::isDistributed(w.type))
        return false;
    double current = predictCurrent(w, est);
    if (current >= required)
        return false;

    // Ask the scheduler for additional nodes covering the residual.
    // Servers already hosting w are naturally skipped (they cannot
    // host a second share).
    auto hosting = cluster_.serversHosting(w.id);
    double residual = required - current;
    auto alloc = scheduler_.allocate(w, est, residual, !w.best_effort);
    if (!alloc)
        return false;
    // Filter nodes on servers that already host w.
    Allocation filtered;
    filtered.knobs = w.active_knobs;
    filtered.evictions = alloc->evictions;
    for (const AllocationNode &n : alloc->nodes) {
        bool dup = false;
        for (ServerId h : hosting)
            dup = dup || h == n.server;
        if (!dup)
            filtered.nodes.push_back(n);
    }
    if (filtered.nodes.empty())
        return false;

    applyAllocation(w, filtered, t);
    ++stats_.scale_out_adjustments;

    // Stateful services pay a migration cost proportional to the
    // state that must move to the new nodes.
    if (w.type == WorkloadType::StatefulService && w.state_gb > 0.0) {
        size_t old_nodes = hosting.size();
        size_t new_nodes = old_nodes + filtered.nodes.size();
        double moved_fraction = double(filtered.nodes.size()) /
                                double(std::max<size_t>(new_nodes, 1));
        double moved_gb = w.state_gb * moved_fraction;
        double duration = moved_gb / kMigrationGbps;
        w.degraded_until = t + duration;
        // Only the moving shards are unavailable: the penalty scales
        // with the fraction of state in flight.
        w.degraded_factor =
            1.0 - (1.0 - kMigrationFactor) * moved_fraction;
    }
    return true;
}

void
QuasarManager::shrinkAllocation(Workload &w, const WorkloadEstimate &est,
                                double required, double t)
{
    auto hosting = cluster_.serversHosting(w.id);
    if (hosting.empty())
        return;

    // Prefer releasing a whole node (lowest predicted contribution)
    // when the remainder still meets the target with margin.
    if (hosting.size() > 1) {
        ServerId worst = hosting.front();
        double worst_q = 1e18;
        for (ServerId sid : hosting) {
            double q = scheduler_.serverQuality(
                cluster_.server(sid), est);
            if (q < worst_q) {
                worst_q = q;
                worst = sid;
            }
        }
        const sim::TaskShare saved = *cluster_.server(worst).share(w.id);
        cluster_.server(worst).remove(w.id);
        // Keep a modest margin after shrinking: above the growth
        // trigger so the allocation cannot oscillate, but low enough
        // that over-provisioned capacity is actually reclaimed. The
        // margin is verified against a *measurement*, not just the
        // estimate — in a loaded cluster an over-shrink may be
        // impossible to undo later.
        if (predictCurrent(w, est) >= 1.15 * required &&
            monitor_.measureAbsolute(w, t) >= 1.1 * required) {
            ++stats_.shrinks;
            return;
        }
        cluster_.server(worst).place(saved); // undo
    }

    // Otherwise downsize the largest share by one grid step.
    ServerId biggest = hosting.front();
    int max_cores = -1;
    for (ServerId sid : hosting) {
        const sim::TaskShare *s = cluster_.server(sid).share(w.id);
        if (s->cores > max_cores) {
            max_cores = s->cores;
            biggest = sid;
        }
    }
    sim::Server &srv = cluster_.server(biggest);
    const sim::TaskShare *share = srv.share(w.id);
    // resize() mutates the share in place, so remember the current
    // size by value for the undo below.
    const int old_cores = share->cores;
    const double old_mem = share->memory_gb;
    const size_t p_idx = srv.platformIndex();
    double interf = est.interferenceMultiplier(
        srv.contentionFor(w.id), scheduler_.config().slope_guess);
    // Smallest config that still meets the per-node requirement.
    // Approximate per-node need: required / node count.
    double per_node_need =
        required / double(std::max<size_t>(hosting.size(), 1));
    int best_cores = share->cores;
    double best_mem = share->memory_gb;
    bool found = false;
    for (size_t c = 0; c < est.scale_up_grid.size(); ++c) {
        const auto &cfg = est.scale_up_grid[c];
        if (cfg.cores > share->cores ||
            cfg.memory_gb > share->memory_gb + 1e-9)
            continue;
        if (cfg.cores == share->cores &&
            cfg.memory_gb == share->memory_gb)
            continue;
        double perf = est.nodePerf(p_idx, c) * interf;
        if (perf < 1.15 * per_node_need)
            continue;
        if (!found || cfg.cores < best_cores ||
            (cfg.cores == best_cores && cfg.memory_gb < best_mem)) {
            best_cores = cfg.cores;
            best_mem = cfg.memory_gb;
            found = true;
        }
    }
    if (found && srv.resize(w.id, best_cores, best_mem)) {
        if (monitor_.measureAbsolute(w, t) >= 1.1 * required) {
            ++stats_.shrinks;
        } else {
            srv.resize(w.id, old_cores, old_mem); // undo
        }
    }
}

void
QuasarManager::adjust(Workload &w, Tracked &rec,
                      const WorkloadEstimate &est, double t)
{
    stats::ScopedTimer timer(stats_.adapt_time);
    double required = requiredPerf(w, t);

    // Feedback loop: reconcile the estimate with the measured
    // performance before deciding how to adjust.
    if (cfg_.feedback_loop) {
        double predicted = predictCurrent(w, est);
        double measured = monitor_.measureAbsolute(w, t);
        if (predicted > 0.0 &&
            std::fabs(measured / predicted - 1.0) >
                kFeedbackDeviation) {
            // Damped correction: transient interference shows up in
            // the measurement, so only half the (log) deviation is
            // attributed to misclassification.
            double scale = std::sqrt(measured / predicted);
            WorkloadEstimate &fixed = estimateForWrite(w.id);
            for (double &v : fixed.scale_up_perf)
                v *= scale;
            for (double &v : fixed.cross_perf)
                v *= scale;
            auto hosting = cluster_.serversHosting(w.id);
            if (!hosting.empty()) {
                // Push the corrected column into history.
                size_t col = nearestColumn(
                    fixed, *cluster_.server(hosting.front()).share(w.id));
                classifier_.feedbackScaleUp(fixed, col,
                                            fixed.scale_up_perf[col]);
            }
            ++stats_.feedback_updates;
        }
    }

    int &strikes = rec.strikes;
    ++strikes;
    // A single below-threshold reading can be measurement noise; act
    // only when the miss persists (conservative adaptation).
    if (strikes < 2)
        return;

    // Conservative adjustment: partition away interference first (no
    // extra resources needed) when the shortfall is small enough that
    // interference can plausibly explain it, then scale up in place,
    // then out.
    double measured_norm = monitor_.measure(w, t);
    if (cfg_.resource_partitioning && measured_norm > 0.75 &&
        tryPartition(w, est))
        return;
    if (tryScaleUp(w, est, required * scheduler_.config().headroom, t))
        return;
    if (tryScaleOut(w, est, required, t))
        return;

    if (strikes >= kUnderperfStrikes) {
        strikes = 0;
        if (t - rec.last_reschedule >= kRescheduleCooldownS) {
            rec.last_reschedule = t;
            reclassifyAndReschedule(w, t);
        }
    }
}

void
QuasarManager::reclassifyAndReschedule(Workload &w, double t)
{
    // Snapshot the current placement: in a loaded cluster a fresh
    // placement can come out worse than what the workload already
    // holds, in which case we keep the old one (but still adopt the
    // fresh classification).
    struct Saved
    {
        ServerId server;
        sim::TaskShare share;
    };
    std::vector<Saved> old_shares;
    for (ServerId sid : cluster_.serversHosting(w.id))
        old_shares.push_back({sid, *cluster_.server(sid).share(w.id)});

    releaseWorkload(w.id);
    WorkloadEstimate est = profileAndClassify(w, t);
    double old_predicted = 0.0;
    {
        // Predict the old placement under the fresh estimate.
        for (const Saved &sv : old_shares)
            cluster_.server(sv.server).place(sv.share);
        old_predicted = predictCurrent(w, est);
        releaseWorkload(w.id);
    }
    WorkloadEstimate &fresh = estimateForWrite(w.id);
    fresh = std::move(est);
    ++stats_.rescheduled;

    double required = requiredPerf(w, t);
    auto alloc = scheduler_.allocate(w, fresh, required, !w.best_effort);
    bool better = alloc.has_value() &&
                  (alloc->predicted_perf >=
                       kRescheduleHysteresis * old_predicted ||
                   old_shares.empty());
    if (better) {
        applyAllocation(w, *alloc, t);
        admission_.admitted(w.id, t);
        ++stats_.scheduled;
        return;
    }
    // Revert to the previous placement.
    for (const Saved &sv : old_shares)
        cluster_.server(sv.server).place(sv.share);
    w.last_progress_update = t;
    if (old_shares.empty()) {
        admission_.enqueue(w.id, t);
        ++stats_.queued;
    }
}

void
QuasarManager::drainAdmission(double t, bool ignore_backoff)
{
    // Retry queued workloads (admission control; plain entries are
    // always due, backed-off ones when their timer or the aging
    // guard says so). Under overload, due sheddable entries are
    // re-deferred — or, past the shed deadline, dropped into the
    // terminal shed state — before any scheduling is attempted.
    std::vector<WorkloadId> due = ignore_backoff
                                      ? admission_.drainForRetry()
                                      : admission_.drainForRetry(t);
    for (WorkloadId id : due) {
        Workload &w = registry_.get(id);
        if (w.completed || w.killed) {
            forget(id);
            continue;
        }
        double since = admission_.enqueuedAt(id);
        double age = since >= 0.0 ? t - since : -1.0;
        if (overload_.shouldShed(w, age)) {
            shedWorkload(w, t);
            continue;
        }
        // The aging guard breaks the backpressure feedback loop: a
        // deferred entry keeps the queue deep, which keeps the
        // detector pressured, which would re-defer it forever. Past
        // the age limit the entry escapes the defer gate and gets a
        // real scheduling attempt (under true overload that attempt
        // fails and it simply re-queues).
        bool aged = cfg_.overload.aging_limit_s > 0.0 && age >= 0.0 &&
                    age >= cfg_.overload.aging_limit_s;
        if (!aged && overload_.shouldDefer(w)) {
            overload_.noteDefer(id, t);
            ++stats_.overload_deferred;
            admission_.enqueueWithBackoff(
                id, t, cfg_.overload.defer_base_s,
                cfg_.overload.defer_max_s);
            continue;
        }
        trySchedule(id, t, true);
    }
}

void
QuasarManager::shedWorkload(Workload &w, double t)
{
    // Terminal and accounted: the arrival leaves the system
    // explicitly (shed implies killed, holds no resources, and is
    // counted apart from completions and churn departures).
    w.shed = true;
    w.killed = true;
    w.brownout_active = false;
    w.completion_time = t;
    overload_.noteShed(w.id, t);
    ++stats_.shed;
    cluster_.removeEverywhere(w.id);
    forget(w.id);
}

void
QuasarManager::applyBrownout(double t)
{
    // Graceful degradation instead of binary shed: every placed
    // best-effort share is reduced to the brownout core count (memory
    // kept — it is not the contended resource here), remembering the
    // original sizes for the restore pass. Walk order (ascending ids,
    // ascending servers) is deterministic and placement-derived, so
    // the decisions replay bit-identically.
    for (WorkloadId id : registry_.active()) {
        Workload &w = registry_.get(id);
        if (!w.best_effort || w.brownout_active)
            continue;
        std::vector<BrownoutShare> saved;
        for (ServerId sid : cluster_.serversHosting(id)) {
            sim::Server &srv = cluster_.server(sid);
            const sim::TaskShare *share = srv.share(id);
            if (!share || share->cores <= cfg_.overload.brownout_cores)
                continue;
            BrownoutShare bs{sid, share->cores, share->memory_gb};
            if (srv.resize(id, cfg_.overload.brownout_cores,
                           share->memory_gb))
                saved.push_back(bs);
        }
        if (!saved.empty()) {
            tracked_[id].brownout_saved = std::move(saved);
            browned_out_.insert(id);
            w.brownout_active = true;
            w.brownout_ever = true;
            overload_.noteBrownout(id, t);
            ++stats_.brownouts;
        }
    }
}

void
QuasarManager::restoreBrownout(double t)
{
    // forget() drops finished workloads from the index, so every id
    // here is still active.
    for (auto it = browned_out_.begin(); it != browned_out_.end();) {
        WorkloadId id = *it;
        Workload &w = registry_.get(id);
        std::vector<BrownoutShare> &saved = tracked_[id].brownout_saved;
        bool fully = true;
        for (const BrownoutShare &bs : saved) {
            sim::Server &srv = cluster_.server(bs.server);
            const sim::TaskShare *share = srv.share(id);
            if (!share)
                continue; // displaced or evicted since; nothing held
            if (share->cores >= bs.cores)
                continue; // already grown back by the adapt loop
            if (bs.cores - share->cores > srv.coresFree() ||
                !srv.resize(id, bs.cores, bs.memory_gb))
                fully = false;
        }
        if (fully) {
            w.brownout_active = false;
            overload_.noteRestore(id, t);
            ++stats_.brownout_restores;
            saved.clear();
            it = browned_out_.erase(it);
        } else {
            ++it; // partial restore: keep trying on later ticks
        }
    }
}

void
QuasarManager::autoscaleServices(double t)
{
    // PerfEnforce-style control round: each active placed service's
    // monitored normalized performance feeds its scaling policy; the
    // output boost multiplies requiredPerf, which the adapt loop
    // (scale up / out, shrink suppression) then enacts.
    for (WorkloadId id : registry_.active()) {
        Workload &w = registry_.get(id);
        if (!workload::isLatencyCritical(w.type) || w.best_effort)
            continue;
        if (cluster_.serversHosting(id).empty())
            continue;
        double before = overload_.boostFor(id);
        double boost = overload_.updateBoost(
            id, monitor_.measure(w, t), t);
        ++stats_.autoscale_updates;
        // A raised requirement should act this tick, not after the
        // adjustment cooldown from some earlier decision expires.
        if (boost > before)
            tracked_[id].last_adjust = kNever;
    }
}

void
QuasarManager::onTick(double t)
{
    // Overload detector first: every gating decision of this tick
    // (defer, shed, brownout) reads the state observed here. The
    // probes — reserved CPU and queue depth — are pure functions of
    // the placements, which are bit-identical across scheduler modes.
    if (overload_.enabled()) {
        OverloadState before = overload_.state();
        sim::ClusterSnapshot snap = cluster_.snapshot();
        OverloadState now =
            overload_.observe(t, snap.cpu_reserved, admission_.size());
        if (now != before)
            ++stats_.overload_transitions;
        if (now == OverloadState::Overloaded && cfg_.overload.brownout)
            applyBrownout(t);
        else if (now == OverloadState::Normal)
            restoreBrownout(t);
    }

    drainAdmission(t, false);

    // Service autoscaler round (paced by scale_interval_s), before
    // the monitor loop so this tick's adjustments see fresh boosts.
    if (overload_.beginScaleRound(t))
        autoscaleServices(t);

    // Monitor active primary workloads.
    for (WorkloadId id : registry_.active()) {
        Workload &w = registry_.get(id);
        if (workload::isLatencyCritical(w.type) &&
            cfg_.predict_lead_s > 0.0)
            tracked_[id].predictor.observe(t, w.offeredQps(t));
        if (cluster_.serversHosting(id).empty())
            continue;
        Tracked &rec = tracked_[id];
        Alert alert = monitor_.check(w, t);
        // The estimate is looked up only when the alert acts on it. A
        // share placed outside the manager (a test's background load)
        // has none: it is measured, never adapted.
        if (alert == Alert::Underperforming && !w.best_effort) {
            if (t - rec.last_adjust >= kAdjustCooldownS) {
                rec.last_adjust = t;
                if (const WorkloadEstimate *est = estimateFor(id))
                    adjust(w, rec, *est, t);
            }
        } else if (alert == Alert::Overprovisioned) {
            if (t - rec.last_adjust >= kShrinkCooldownS) {
                rec.last_adjust = t;
                if (const WorkloadEstimate *est = estimateFor(id))
                    shrinkAllocation(w, *est, requiredPerf(w, t), t);
            }
            rec.strikes = 0;
        } else {
            rec.strikes = 0;
        }
    }

    // Proactive phase detection on a sample of active workloads.
    if (cfg_.proactive_detection &&
        t - last_proactive_ >= cfg_.proactive_interval_s) {
        last_proactive_ = t;
        for (WorkloadId id : registry_.active()) {
            if (!rng_.chance(kProactiveFraction))
                continue;
            Workload &w = registry_.get(id);
            if (cluster_.serversHosting(id).empty())
                continue;
            // Placed outside the manager: unclassified, never probed.
            const WorkloadEstimate *est = estimateFor(id);
            if (!est)
                continue;
            bool phase_changed;
            {
                // Proactive sampling re-profiles in a sandbox; charge
                // it to the profiling wall-clock budget.
                stats::ScopedTimer profile_timer(stats_.profile_time);
                phase_changed =
                    monitor_.probePhaseChange(w, *est, profiler_, t);
            }
            if (phase_changed) {
                ++stats_.phase_reclassifications;
                reclassifyAndReschedule(w, t);
            }
        }
    }
}

void
QuasarManager::onCompletion(WorkloadId id, double t)
{
    forget(id);
    // Free capacity: retry queued workloads immediately.
    drainAdmission(t, true);
}

void
QuasarManager::onServerDown(ServerId,
                            const std::vector<WorkloadId> &displaced,
                            double t)
{
    ++stats_.server_failures;
    for (WorkloadId id : displaced) {
        Workload &w = registry_.get(id);
        // A share placed outside the manager (unclassified) is not the
        // manager's to re-place, as it is not its to adapt.
        if (w.completed || w.killed || !estimateFor(id))
            continue;
        ++stats_.tasks_displaced;
        std::optional<double> &since = tracked_[id].displaced_at;
        if (!since)
            since = t;
        replaceDisplaced(id, t);
    }
}

void
QuasarManager::replaceDisplaced(WorkloadId id, double t)
{
    Workload &w = registry_.get(id);
    // A machine loss is not a phase change: keep the existing
    // classification and skip re-profiling entirely.
    const WorkloadEstimate &est = estimates_.at(id);
    if (!cluster_.serversHosting(id).empty()) {
        // Partial loss of a multi-node job: still holding resources,
        // so top up scale-out-first; if capacity is tight the
        // reactive monitoring path keeps working on it.
        double required = requiredPerf(w, t);
        if (predictCurrent(w, est) < required)
            tryScaleOut(w, est, required, t);
        noteRecovered(id, t);
        return;
    }
    if (admission_.contains(id))
        return; // already waiting for capacity
    if (trySchedule(id, t, false))
        return;
    // Capacity is temporarily gone (e.g. mid zone outage): park with
    // exponential backoff instead of hammering the scheduler.
    admission_.enqueueWithBackoff(id, t, kFailureBackoffS,
                                  kFailureBackoffMaxS);
    ++stats_.queued;
}

void
QuasarManager::onServerUp(ServerId, double t)
{
    // Fresh capacity just appeared: retry the whole queue now,
    // ignoring any backoff timers.
    drainAdmission(t, true);
}

void
QuasarManager::onServerDegraded(ServerId sid, double, double t)
{
    (void)t;
    // A sick node is a phase change in disguise: the oracle already
    // runs its residents slower, so pre-charge the reactive path —
    // clear the adjustment cooldown and the noise-filter strike so
    // the next below-target reading acts immediately.
    for (const sim::TaskShare &share : cluster_.server(sid).tasks()) {
        Workload &w = registry_.get(share.workload);
        if (w.best_effort || w.completed)
            continue;
        Tracked &rec = tracked_[share.workload];
        rec.strikes = std::max(rec.strikes, 1);
        rec.last_adjust = kNever;
    }
}

const WorkloadEstimate *
QuasarManager::estimateFor(WorkloadId id) const
{
    auto it = estimates_.find(id);
    return it == estimates_.end() ? nullptr : &it->second;
}

} // namespace quasar::core
