#include "driver/scenario.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "workload/queueing.hh"

#ifdef QUASAR_VERIFY
// Sanctioned upward edge: replay sweeps hook in under QUASAR_VERIFY
// only. quasar-lint: allow(layering)
#include "verify/verify.hh"
#endif

namespace quasar::driver
{

using workload::Workload;

WorkloadOutcome
outcomeOf(const Workload &w)
{
    if (w.shed)
        return WorkloadOutcome::Shed;
    if (w.killed)
        return WorkloadOutcome::Departed;
    if (w.completed)
        return WorkloadOutcome::Completed;
    return WorkloadOutcome::Active;
}

ScenarioDriver::ScenarioDriver(sim::Cluster &cluster,
                               workload::WorkloadRegistry &registry,
                               ClusterManager &manager, DriverConfig cfg)
    : cluster_(cluster), registry_(registry), manager_(manager),
      cfg_(cfg), oracle_(cluster, registry), cpu_used_(cluster.size())
{
    assert(cfg_.tick_s > 0.0);
}

void
ScenarioDriver::addArrival(WorkloadId id, double t)
{
    assert(registry_.contains(id));
    events_.schedule(t, [this, id, t]() {
        Workload &w = registry_.get(id);
        w.arrival_time = t;
        w.last_progress_update = t;
        manager_.onSubmit(id, t);
    });
}

void
ScenarioDriver::killWorkload(WorkloadId id, double t)
{
    Workload &w = registry_.get(id);
    if (w.completed || w.killed)
        return;
    // Settle batch progress up to the departure instant; the workload
    // may complete exactly here, in which case the completion wins.
    if (!workload::isLatencyCritical(w.type))
        integrateProgress(w, t);
    if (w.completed)
        return;
    w.killed = true;
    w.completion_time = t;
    cluster_.removeEverywhere(id);
    manager_.onCompletion(id, t);
}

void
ScenarioDriver::run(double until)
{
    run_until_ = until;
    events_.scheduleAfter(cfg_.tick_s, [this]() { tick(); });
    events_.run(until);
}

void
ScenarioDriver::installFaults(sim::FaultInjector &faults)
{
    faults.arm(events_, *this);
}

void
ScenarioDriver::integrateProgress(workload::Workload &w, double t)
{
    if (workload::isLatencyCritical(w.type) || w.completed)
        return;
    if (cluster_.serversHosting(w.id).empty()) {
        w.last_progress_update = t;
        return;
    }
    double rate = oracle_.currentRate(w, t);
    // A workload whose only server is down or fully degraded (speed
    // factor 0) reports a zero rate; a hosed model could even return
    // a negative or non-finite one. Either way the completion-time
    // division below must never see it: clamp to "no progress" and
    // let wall-clock advance.
    if (!std::isfinite(rate) || rate < 0.0)
        rate = 0.0;
    double dt = std::max(t - w.last_progress_update, 0.0);
    double remaining = w.total_work - w.work_done;
    if (remaining <= 0.0) {
        // Work already accounted for (e.g. progress settled by a
        // fault hook at this same instant); finish now, not at a
        // time extrapolated through a division by the current rate.
        w.work_done = w.total_work;
        completeWorkload(w, t);
        return;
    }
    if (rate > 0.0 && rate * dt >= remaining) {
        double at = w.last_progress_update + remaining / rate;
        // Guard against rounding pushing the completion instant
        // outside the integration window.
        at = std::min(std::max(at, w.last_progress_update), t);
        w.work_done = w.total_work;
        completeWorkload(w, at);
        return;
    }
    w.work_done += rate * dt;
    w.last_progress_update = t;
}

void
ScenarioDriver::beforeServerStateChange(ServerId sid, double t)
{
    // Settle batch progress at the pre-fault rate for every workload
    // touching this server; ids are copied because a completion here
    // mutates the server's task list.
    std::vector<WorkloadId> resident;
    for (const sim::TaskShare &share : cluster_.server(sid).tasks())
        resident.push_back(share.workload);
    for (WorkloadId id : resident)
        integrateProgress(registry_.get(id), t);
}

void
ScenarioDriver::serverFailed(ServerId sid,
                             const std::vector<WorkloadId> &displaced,
                             double t)
{
    manager_.onServerDown(sid, displaced, t);
}

void
ScenarioDriver::serverRecovered(ServerId sid, double t)
{
    manager_.onServerUp(sid, t);
}

void
ScenarioDriver::serverDegraded(ServerId sid, double speed_factor,
                               double t)
{
    manager_.onServerDegraded(sid, speed_factor, t);
}

void
ScenarioDriver::completeWorkload(Workload &w, double at)
{
    w.completed = true;
    w.completion_time = at;
    cluster_.removeEverywhere(w.id);
    manager_.onCompletion(w.id, at);
}

void
ScenarioDriver::tick()
{
    stats::ScopedTimer tick_timer(tick_time_);
    const double t = events_.now();
    ++ticks_;

    // 1. Integrate batch progress / sample service QoS.
    for (WorkloadId id : registry_.active()) {
        Workload &w = registry_.get(id);
        bool placed = !cluster_.serversHosting(id).empty();
        if (placed && w.first_placed_at < 0.0)
            w.first_placed_at = w.last_progress_update;

        if (workload::isLatencyCritical(w.type)) {
            double offered = w.offeredQps(t);
            double cap =
                placed ? oracle_.serviceCapacityQps(w, t) : 0.0;
            double ok_cap = workload::maxQpsWithinQos(
                cap, w.target.latency_qos_s);
            ServiceTrace &trace = service_traces_[id];
            if (ticks_ % cfg_.record_every == 0) {
                trace.offered_qps.record(t, offered);
                trace.served_qps.record(
                    t, workload::servedQps(offered, cap));
                trace.served_ok_qps.record(
                    t, workload::servedQps(offered, ok_cap));
                trace.p99_latency.record(
                    t, workload::percentileLatency(offered, cap));
                trace.qos_fraction.record(
                    t, workload::fractionMeetingQos(
                           offered, cap, w.target.latency_qos_s));
            }
        } else {
            integrateProgress(w, t);
            if (w.completed)
                continue;
        }

        if (placed && !w.best_effort)
            norm_perf_[id].add(oracle_.normalizedPerformance(w, t));
    }

    // 2. Refresh measured usage for utilization accounting. Only busy
    // servers can have usage to refresh; idle machines cost nothing
    // here even at 10k-server scale.
    for (ServerId sid : cluster_.busyServers()) {
        sim::Server &srv = cluster_.server(sid);
        // setUsage mutates shares in place only (membership, and with
        // it the busy set being iterated, never changes here).
        for (const sim::TaskShare &share : srv.tasks()) {
            const Workload &w = registry_.get(share.workload);
            srv.setUsage(share.workload,
                         oracle_.usedCores(w, srv, share, t));
        }
    }

    // 3. Record utilization series.
    if (ticks_ % cfg_.record_every == 0) {
        for (size_t s = 0; s < cluster_.size(); ++s)
            cpu_used_.record(s, t,
                             cluster_.server(ServerId(s)).cpuUtilization());
        sim::ClusterSnapshot snap = cluster_.snapshot();
        agg_cpu_used_.record(t, snap.cpu_used);
        agg_cpu_reserved_.record(t, snap.cpu_reserved);
        agg_mem_used_.record(t, snap.mem_used);
    }

    // 4. Manager adaptation hook.
    manager_.onTick(t);
    if (tick_hook_)
        tick_hook_(t);

#ifdef QUASAR_VERIFY
    // Verify builds: full cluster invariant sweep each tick, so every
    // driver-based test doubles as an accounting/journal soak.
    verify::sweepCluster(cluster_, &registry_);
#endif

    // 5. Next tick.
    if (t + cfg_.tick_s <= run_until_)
        events_.scheduleAfter(cfg_.tick_s, [this]() { tick(); });
}

double
ScenarioDriver::meanNormalizedPerf(WorkloadId id) const
{
    auto it = norm_perf_.find(id);
    return it == norm_perf_.end() ? 0.0 : it->second.mean();
}

const ServiceTrace *
ScenarioDriver::serviceTrace(WorkloadId id) const
{
    auto it = service_traces_.find(id);
    return it == service_traces_.end() ? nullptr : &it->second;
}

double
ScenarioDriver::completionTime(WorkloadId id) const
{
    const Workload &w = registry_.get(id);
    return w.completed ? w.completion_time : -1.0;
}

} // namespace quasar::driver
