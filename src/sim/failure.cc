#include "sim/failure.hh"

#include <algorithm>
#include <cassert>

namespace quasar::sim
{

void
FaultInjector::crashServer(double t, ServerId sid)
{
    assert(sid < cluster_.size());
    plan_.push_back({t, FaultKind::ServerCrash, sid, -1, 0.5});
}

void
FaultInjector::recoverServer(double t, ServerId sid)
{
    assert(sid < cluster_.size());
    plan_.push_back({t, FaultKind::ServerRecovery, sid, -1, 1.0});
}

void
FaultInjector::degradeServer(double t, ServerId sid, double speed_factor)
{
    assert(sid < cluster_.size());
    // 0 is a legal full stall (Server::degrade clamps into [0, 1)).
    assert(speed_factor >= 0.0 && speed_factor < 1.0);
    plan_.push_back(
        {t, FaultKind::ServerDegrade, sid, -1, speed_factor});
}

void
FaultInjector::crashZone(double t, int zone)
{
    plan_.push_back({t, FaultKind::ZoneOutage, 0, zone, 0.5});
}

void
FaultInjector::recoverZone(double t, int zone)
{
    plan_.push_back({t, FaultKind::ZoneRecovery, 0, zone, 1.0});
}

void
FaultInjector::generateStochastic()
{
    if (cfg_.mttf_s <= 0.0 || cfg_.horizon_s <= 0.0)
        return;
    stats::Rng rng(cfg_.seed);
    // Stochastic degradations run at half speed.
    constexpr double kDegradeSpeed = 0.5;
    // Independent renewal process per server: fail after exp(MTTF) of
    // healthy operation, recover after exp(MTTR), repeat. Generated
    // up-front in server order, so the plan is a pure function of the
    // seed regardless of how the simulation interleaves.
    for (size_t s = 0; s < cluster_.size(); ++s) {
        double t = rng.exponential(1.0 / cfg_.mttf_s);
        while (t < cfg_.horizon_s) {
            bool degrade = rng.chance(cfg_.degrade_fraction);
            double repair = rng.exponential(1.0 / cfg_.mttr_s);
            if (degrade) {
                plan_.push_back({t, FaultKind::ServerDegrade,
                                 ServerId(s), -1, kDegradeSpeed});
            } else {
                plan_.push_back({t, FaultKind::ServerCrash, ServerId(s),
                                 -1, 0.5});
            }
            double up_at = t + repair;
            if (up_at < cfg_.horizon_s)
                plan_.push_back({up_at, FaultKind::ServerRecovery,
                                 ServerId(s), -1, 1.0});
            t = up_at + rng.exponential(1.0 / cfg_.mttf_s);
        }
    }
}

void
FaultInjector::crashOne(ServerId sid, double t, FaultListener &listener)
{
    Server &srv = cluster_.server(sid);
    if (srv.state() == ServerState::Down)
        return; // already dead; idempotent
    listener.beforeServerStateChange(sid, t);
    std::vector<TaskShare> dropped = srv.markDown();
    std::vector<WorkloadId> displaced;
    displaced.reserve(dropped.size());
    for (const TaskShare &share : dropped)
        displaced.push_back(share.workload);
    ++stats_.crashes;
    listener.serverFailed(sid, displaced, t);
}

void
FaultInjector::recoverOne(ServerId sid, double t,
                          FaultListener &listener)
{
    Server &srv = cluster_.server(sid);
    if (srv.state() == ServerState::Up)
        return; // nothing to repair
    listener.beforeServerStateChange(sid, t);
    srv.recover();
    ++stats_.recoveries;
    listener.serverRecovered(sid, t);
}

void
FaultInjector::apply(const FaultEvent &ev, double t,
                     FaultListener &listener)
{
    switch (ev.kind) {
      case FaultKind::ServerCrash:
        crashOne(ev.server, t, listener);
        break;
      case FaultKind::ServerRecovery:
        recoverOne(ev.server, t, listener);
        break;
      case FaultKind::ServerDegrade: {
        Server &srv = cluster_.server(ev.server);
        if (srv.state() == ServerState::Down)
            break; // cannot degrade a dead machine
        listener.beforeServerStateChange(ev.server, t);
        if (srv.degrade(ev.speed_factor)) {
            ++stats_.degradations;
            listener.serverDegraded(ev.server, ev.speed_factor, t);
        }
        break;
      }
      case FaultKind::ZoneOutage:
        ++stats_.zone_outages;
        for (ServerId sid : cluster_.serversInZone(ev.zone))
            crashOne(sid, t, listener);
        break;
      case FaultKind::ZoneRecovery:
        for (ServerId sid : cluster_.serversInZone(ev.zone))
            recoverOne(sid, t, listener);
        break;
    }
}

void
FaultInjector::arm(EventQueue &events, FaultListener &listener)
{
    assert(!armed_);
    armed_ = true;
    generateStochastic();
    // Stable sort keeps same-time events in submission order, which
    // together with the queue's FIFO tie-break makes runs repeatable.
    std::stable_sort(plan_.begin(), plan_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.time < b.time;
                     });
    for (const FaultEvent &ev : plan_) {
        events.schedule(std::max(ev.time, events.now()),
                        [this, ev, &events, &listener]() {
                            apply(ev, events.now(), listener);
                        });
    }
}

} // namespace quasar::sim
