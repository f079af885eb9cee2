#include "core/overload.hh"

#include <algorithm>
#include <cstring>

namespace quasar::core
{

OverloadDetector::OverloadDetector(const OverloadConfig &cfg)
    : cfg_(cfg), dwell_(3, size_t(OverloadState::Normal))
{
}

OverloadState
OverloadDetector::severityOf(double util, size_t depth) const
{
    if (util >= cfg_.util_overloaded || depth >= cfg_.depth_overloaded)
        return OverloadState::Overloaded;
    if (util >= cfg_.util_pressured || depth >= cfg_.depth_pressured)
        return OverloadState::Pressured;
    return OverloadState::Normal;
}

bool
OverloadDetector::clearsExitBand(OverloadState level, double util,
                                 size_t depth) const
{
    // Exit thresholds sit a hysteresis band below the thresholds that
    // entered `level`: to leave it, BOTH probes must clear the band.
    double band = 1.0 - cfg_.hysteresis;
    double util_enter = level == OverloadState::Overloaded
                            ? cfg_.util_overloaded
                            : cfg_.util_pressured;
    size_t depth_enter = level == OverloadState::Overloaded
                             ? cfg_.depth_overloaded
                             : cfg_.depth_pressured;
    return util < util_enter * band &&
           double(depth) < double(depth_enter) * band;
}

OverloadState
OverloadDetector::update(double t, double util, size_t depth)
{
    if (!started_) {
        started_ = true;
        entered_at_ = t;
    }
    OverloadState sev = severityOf(util, depth);
    OverloadState next = state_;
    if (int(sev) > int(state_)) {
        // Upgrades are immediate (possibly skipping Pressured): the
        // whole point is acting before QoS is violated after the
        // fact.
        next = sev;
    } else if (int(sev) < int(state_) &&
               t - entered_at_ >= cfg_.min_dwell_s &&
               clearsExitBand(state_, util, depth)) {
        // Downgrades are conservative: one level per update, only
        // after the minimum dwell, and only once the metrics clear
        // the exit band — hovering at the band edge cannot flap.
        next = OverloadState(int(state_) - 1);
    }
    if (next != state_)
        entered_at_ = t;
    dwell_.transitionTo(size_t(next), t);
    state_ = next;
    return state_;
}

double
PiPolicy::update(const OverloadConfig &cfg, double error, double dt)
{
    if (error > -cfg.deadband && error < cfg.deadband)
        error = 0.0; // deadband: no action, no integration
    // Conditional integration (anti-windup): freeze the integral
    // while the unsaturated output is already past the rail in the
    // error's direction, so a long overload episode cannot wind it
    // up; integration resumes the moment the error reverses.
    double unsat = 1.0 + cfg.kp * error + integral;
    bool winding_hi = unsat > cfg.boost_max && error > 0.0;
    bool winding_lo = unsat < cfg.boost_min && error < 0.0;
    if (!winding_hi && !winding_lo)
        integral += cfg.ki * error * dt;
    // Belt and braces: the integral alone can never demand an output
    // outside the reachable range.
    integral =
        std::clamp(integral, cfg.boost_min - 1.0, cfg.boost_max - 1.0);
    double out = 1.0 + cfg.kp * error + integral;
    return std::clamp(out, cfg.boost_min, cfg.boost_max);
}

OverloadController::OverloadController(const OverloadConfig &cfg)
    : cfg_(cfg), detector_(cfg)
{
}

void
OverloadController::fold(uint64_t v)
{
    hash_ ^= v;
    hash_ *= 0x100000001B3ULL;
}

void
OverloadController::foldDouble(double v)
{
    // Bit-pattern fold: the replay contract is bitwise, and decision
    // dirs avoid floating-point equality entirely.
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    fold(bits);
}

OverloadState
OverloadController::observe(double t, double util, size_t depth)
{
    if (!cfg_.enabled)
        return OverloadState::Normal;
    OverloadState before = detector_.state();
    OverloadState now = detector_.update(t, util, depth);
    if (now != before) {
        fold(0x5707ULL); // state-transition tag
        foldDouble(t);
        fold(uint64_t(now));
    }
    return now;
}

bool
OverloadController::shouldDefer(const workload::Workload &w) const
{
    if (!cfg_.enabled)
        return false;
    // Latency-critical services are never gated: the entire point of
    // shedding is preserving their SLOs.
    if (workload::isLatencyCritical(w.type))
        return false;
    OverloadState s = detector_.state();
    if (w.best_effort)
        return int(s) >= int(OverloadState::Pressured);
    return s == OverloadState::Overloaded;
}

bool
OverloadController::shouldShed(const workload::Workload &w,
                               double queued_age) const
{
    if (!cfg_.enabled || detector_.state() != OverloadState::Overloaded)
        return false;
    if (workload::isLatencyCritical(w.type))
        return false;
    if (queued_age < 0.0)
        return false;
    // Shed-first ordering: best-effort work sheds at the deadline,
    // primary batch holds out twice as long before giving up its
    // queue slot.
    double deadline = w.best_effort ? cfg_.shed_deadline_s
                                    : 2.0 * cfg_.shed_deadline_s;
    return queued_age >= deadline;
}

void
OverloadController::noteDefer(WorkloadId id, double t)
{
    fold(0xDEFEULL);
    fold(uint64_t(id));
    foldDouble(t);
}

void
OverloadController::noteShed(WorkloadId id, double t)
{
    fold(0x5EDULL);
    fold(uint64_t(id));
    foldDouble(t);
}

void
OverloadController::noteBrownout(WorkloadId id, double t)
{
    fold(0xB0ULL);
    fold(uint64_t(id));
    foldDouble(t);
}

void
OverloadController::noteRestore(WorkloadId id, double t)
{
    fold(0x4E5ULL);
    fold(uint64_t(id));
    foldDouble(t);
}

bool
OverloadController::beginScaleRound(double t)
{
    if (!cfg_.enabled)
        return false;
    if (last_scale_ >= 0.0 && t - last_scale_ < cfg_.scale_interval_s)
        return false;
    last_scale_ = t;
    return true;
}

double
OverloadController::updateBoost(WorkloadId id, double measured_norm,
                                double t)
{
    if (!cfg_.enabled)
        return 1.0;
    ServiceControl &sc = services_[id];
    double dt = sc.last_update >= 0.0 ? t - sc.last_update
                                      : cfg_.scale_interval_s;
    double error = cfg_.slo_setpoint - measured_norm;
    sc.boost = sc.pi.update(cfg_, error, dt);
    sc.last_update = t;
    fold(0x5CA1EULL);
    fold(uint64_t(id));
    foldDouble(sc.boost);
    return sc.boost;
}

double
OverloadController::boostFor(WorkloadId id) const
{
    auto it = services_.find(id);
    return it == services_.end() ? 1.0 : it->second.boost;
}

void
OverloadController::forget(WorkloadId id)
{
    services_.erase(id);
}

} // namespace quasar::core
