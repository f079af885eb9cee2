/**
 * @file
 * Overload control and SLO-guaranteed graceful degradation.
 *
 * Quasar's adapt loop (core/manager.cc) rightsizes individual
 * workloads but has no notion of sustained cluster-wide overload: an
 * open-loop arrival stream past capacity just grows the admission
 * queue while every latency service drowns together. This module adds
 * the missing control layer:
 *
 *  1. OverloadDetector — utilization-headroom and admission-depth
 *     probes drive an explicit Normal / Pressured / Overloaded state
 *     machine. Upgrades are immediate; downgrades require the metrics
 *     to clear a hysteresis band below the entry thresholds AND a
 *     minimum dwell in the current state, one level per update, so
 *     the state cannot flap at a band edge.
 *
 *  2. Priority-aware shedding and backpressure — under Pressured the
 *     manager defers best-effort arrivals and retries with
 *     exponential backoff; under Overloaded it also defers batch
 *     classes, and queued sheddable work older than the shed deadline
 *     is dropped into an explicit terminal `shed` state. Latency-
 *     critical services are never deferred or shed (the Alibaba
 *     co-location ordering: best-effort batch absorbs overload so
 *     services keep their SLOs). Every arrival therefore ends
 *     admitted, completed, or accounted-shed.
 *
 *  3. Brownout — instead of binary shed, admitted best-effort work is
 *     degraded to a reduced-core allocation while Overloaded and
 *     restored by the controller once the cluster returns to Normal.
 *
 *  4. A PerfEnforce-style autoscaler on the service model: per
 *     service, a PI controller with conditional-integration
 *     anti-windup tracks an SLO setpoint on the monitored normalized
 *     performance and outputs a demand boost multiplier applied to
 *     the service's required performance, which the existing adapt
 *     loop (scale up / out / shrink) then enacts.
 *
 * Replay contract: every decision here is a pure function of (config,
 * placements, monitor readings), all of which are bit-identical
 * across scheduler modes and re-replays, so shedding and scaling
 * decisions are too. The controller folds each decision into an
 * FNV-1a hash (deciding ticks, state transitions, defers, sheds,
 * brownouts, restores, boost outputs) that benches compare across
 * modes exactly like the placement hash.
 */

#pragma once

#include <cstdint>
#include <map>

#include "common/types.hh"
#include "stats/summary.hh"
#include "workload/workload.hh"

namespace quasar::core
{

/** The overload state machine's three regimes. */
enum class OverloadState
{
    Normal = 0,
    Pressured = 1,
    Overloaded = 2,
};

/** The service autoscaler's control law. */
enum class ScalingPolicyKind
{
    Pi, ///< PI control with anti-windup (PerfEnforce-style).
};

/** All overload-control knobs (QuasarConfig::overload). */
struct OverloadConfig
{
    /** Master switch; disabled leaves every existing decision path
     *  (and its placement hashes) untouched. */
    bool enabled = false;

    /** @name Detector thresholds */
    /// @{
    /** Reserved-CPU fraction entering Pressured / Overloaded. */
    double util_pressured = 0.85;
    double util_overloaded = 0.97;
    /** Admission-queue depth entering Pressured / Overloaded. */
    size_t depth_pressured = 24;
    size_t depth_overloaded = 96;
    /**
     * Hysteresis band: a downgrade requires the metrics below
     * enter_threshold * (1 - hysteresis), not merely below the entry
     * threshold, so hovering at the band edge cannot flap the state.
     */
    static constexpr double hysteresis = 0.10;
    /** Minimum dwell in a state before any downgrade. */
    double min_dwell_s = 30.0;
    /// @}

    /** @name Shedding and backpressure */
    /// @{
    /** Exponential backoff for overload-deferred arrivals. */
    double defer_base_s = 20.0;
    double defer_max_s = 160.0;
    /**
     * Deadline-aware shed: while Overloaded, queued sheddable work
     * that has waited longer than this is dropped (terminal state).
     */
    double shed_deadline_s = 600.0;
    /**
     * Aging / starvation guard: queued entries older than this are
     * always due for retry (regardless of backoff) AND escape the
     * defer gate for a real scheduling attempt — without it, deferred
     * work keeps the queue deep, which keeps the detector pressured,
     * which re-defers forever. Shedding still takes precedence while
     * Overloaded. <= 0 disables.
     */
    double aging_limit_s = 300.0;
    /// @}

    /** @name Brownout */
    /// @{
    bool brownout = true;
    /** Cores a browned-out best-effort share is reduced to. */
    static constexpr int brownout_cores = 1;
    /// @}

    /** @name Service autoscaler */
    /// @{
    ScalingPolicyKind policy = ScalingPolicyKind::Pi;
    /** Normalized-performance setpoint (1.0 = target exactly met). */
    static constexpr double slo_setpoint = 1.0;
    /** No control action while |error| is inside the deadband. */
    static constexpr double deadband = 0.05;
    static constexpr double kp = 0.8;
    static constexpr double ki = 0.05;
    /** Output clamp: boost multiplier on required performance. */
    static constexpr double boost_min = 1.0;
    static constexpr double boost_max = 3.0;
    /** Controller period (updates are no denser than this). */
    double scale_interval_s = 30.0;
    /// @}
};

/**
 * Hysteresis + dwell state machine over the utilization and depth
 * probes. update() is called once per manager tick.
 */
class OverloadDetector
{
  public:
    explicit OverloadDetector(const OverloadConfig &cfg);

    /**
     * Feed one probe sample; returns the (possibly new) state.
     * @param t simulation time (monotone across calls).
     * @param util reserved-CPU fraction of the cluster, [0, 1].
     * @param depth admission-queue depth.
     */
    OverloadState update(double t, double util, size_t depth);

    OverloadState state() const { return state_; }
    size_t transitions() const { return dwell_.transitions(); }

    /** Time-in-state accounting (through the last update). */
    const stats::StateDwell &dwell() const { return dwell_; }

  private:
    /** State the raw metrics call for via the entry thresholds. */
    OverloadState severityOf(double util, size_t depth) const;
    /** True when the metrics clear the exit band below `level`. */
    bool clearsExitBand(OverloadState level, double util,
                        size_t depth) const;

    OverloadConfig cfg_;
    OverloadState state_ = OverloadState::Normal;
    double entered_at_ = 0.0;
    bool started_ = false;
    stats::StateDwell dwell_;
};

/**
 * One service's PI controller with anti-windup: boost = clamp(1 +
 * kp*e + I), where the integral term I accumulates ki*e*dt only while
 * the output is unsaturated or the error drives it back off the rail
 * (conditional integration), and is itself clamped to the reachable
 * output range — a long saturation episode therefore cannot wind the
 * integral up, and recovery off the rail starts immediately.
 */
struct PiPolicy
{
    double integral = 0.0;

    /**
     * One control step.
     * @param error setpoint - measured normalized performance
     *        (positive = underperforming).
     * @param dt seconds since the previous update.
     * @return the new boost, clamped to the config's range.
     */
    double update(const OverloadConfig &cfg, double error, double dt);
};

/**
 * The per-manager overload controller: detector + shedding policy +
 * brownout bookkeeping + per-service autoscaler, with every decision
 * folded into a deterministic FNV-1a hash for replay verification.
 * The QuasarManager owns one and consults it from onSubmit/onTick;
 * this class itself never touches the cluster.
 */
class OverloadController
{
  public:
    explicit OverloadController(const OverloadConfig &cfg);

    bool enabled() const { return cfg_.enabled; }
    const OverloadConfig &config() const { return cfg_; }

    /**
     * One detector step (call once per tick, before any gating
     * decision of that tick). Folds the sample and any transition
     * into the decision hash; returns the new state.
     */
    OverloadState observe(double t, double util, size_t depth);

    OverloadState state() const { return detector_.state(); }
    const OverloadDetector &detector() const { return detector_; }

    /**
     * Whether this workload's class is gated (deferred rather than
     * scheduled) in the current state: best-effort from Pressured up,
     * non-latency-critical batch only while Overloaded, services
     * never.
     */
    bool shouldDefer(const workload::Workload &w) const;

    /**
     * Deadline-aware shed decision for a queued workload: only while
     * Overloaded, only sheddable classes (never latency-critical),
     * and only after the workload has waited past the shed deadline.
     * @param queued_age seconds since the workload joined the queue.
     */
    bool shouldShed(const workload::Workload &w,
                    double queued_age) const;

    /** Record a defer / shed / brownout / restore decision in the
     *  hash. */
    void noteDefer(WorkloadId id, double t);
    void noteShed(WorkloadId id, double t);
    void noteBrownout(WorkloadId id, double t);
    void noteRestore(WorkloadId id, double t);

    /** @name Service autoscaler */
    /// @{
    /**
     * Whether an autoscale round is due at time t (scale_interval
     * pacing); records the round when it is. The manager then calls
     * updateBoost for each active service of the round.
     */
    bool beginScaleRound(double t);

    /**
     * One control step for a service: runs its PI controller on the
     * measured normalized performance and returns the new boost.
     * Folds the output into the decision hash.
     */
    double updateBoost(WorkloadId id, double measured_norm, double t);

    /** Demand-boost multiplier in effect (1.0 when disabled). */
    double boostFor(WorkloadId id) const;

    /** Drop per-service controller state (completion / shed). */
    void forget(WorkloadId id);
    /// @}

    /**
     * FNV-1a fold of every decision so far; bit-identical across
     * scheduler modes and re-replays for a fixed (config, seed).
     */
    uint64_t decisionHash() const { return hash_; }

    /** Fraction of observed time spent in the given state. */
    double fractionIn(OverloadState s) const
    {
        return detector_.dwell().fractionIn(size_t(s));
    }

  private:
    void fold(uint64_t v);
    void foldDouble(double v);

    OverloadConfig cfg_;
    OverloadDetector detector_;
    /** Per-service controller state + current boost. std::map keeps
     *  every iteration (and hash fold order) deterministic. */
    struct ServiceControl
    {
        PiPolicy pi;
        double boost = 1.0;
        double last_update = -1.0;
    };
    std::map<WorkloadId, ServiceControl> services_;
    double last_scale_ = -1.0;
    uint64_t hash_ = 0xCBF29CE484222325ULL;
};

} // namespace quasar::core
