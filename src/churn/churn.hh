/**
 * @file
 * Churn engine: trace-driven open-loop workload streams for
 * cluster-scale experiments.
 *
 * Production clusters are never the static populations of the paper's
 * figures: tenants arrive, leave, change phases, and machines fail
 * underneath them. The engine generates that churn as a seeded,
 * reproducible event stream — arrivals paced by a Poisson or
 * heavy-tailed Pareto process, a mixed population of services /
 * analytics / single-node batch / best-effort fillers drawn from the
 * workload factory, per-class lifetime distributions that retire
 * workloads (open-loop departures), optional mid-life phase changes,
 * and optional stochastic server faults riding the same stream.
 *
 * Open- vs closed-loop: by default the stream is OPEN-loop — the
 * entire plan is generated ahead of time from the config's seed and
 * never consults simulation state, so arrivals do not wait for
 * completions and an overloaded manager faces a growing admission
 * queue instead of a conveniently throttled trace. That is also the
 * replay contract: identical (config, seed) produces the identical
 * event stream no matter which scheduler mode or manager runs
 * underneath, which is what lets the equivalence sweeps compare
 * decision paths event for event and the benches compare sustained
 * decision throughput.
 *
 * The CLOSED-loop variant (cfg.closed_loop) models tenants that back
 * off when the cluster is saturated: each pacing instant consults a
 * depth probe (typically the manager's admission-queue size) and
 * skips the arrival while depth >= closed_loop_target, counting it as
 * a deferral. Generation is lazy — each arrival is drawn at its
 * pacing instant from the same forked RNG streams — so the stream is
 * still a pure function of (config, seed, manager behavior): the same
 * manager under the same seed replays the identical stream.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tracegen/arrivals.hh"
#include "tracegen/load_pattern.hh"

#include "driver/scenario.hh"
#include "sim/cluster.hh"
#include "sim/failure.hh"
#include "tracegen/durations.hh"
#include "workload/factory.hh"
#include "workload/workload.hh"

namespace quasar::churn
{

/** Which arrival process paces the open-loop stream. */
enum class ArrivalKind
{
    Poisson, ///< memoryless inter-arrivals.
    Pareto,  ///< heavy-tailed bursts and lulls.
};

/** Population weights of the mix (normalized internally). */
struct ChurnMix
{
    double single_node = 0.50; ///< SPEC/PARSEC-style batch.
    double analytics = 0.20;   ///< Hadoop/Storm/Spark jobs.
    double service = 0.15;     ///< latency-critical services.
    double best_effort = 0.15; ///< evictable filler tasks.
};

/** Full description of one churn stream. */
struct ChurnConfig
{
    /** Master seed: the whole plan is a pure function of it + cfg. */
    uint64_t seed = 1;

    ArrivalKind arrivals = ArrivalKind::Poisson;
    /** Mean arrivals per second of the open-loop stream. */
    double arrival_rate_per_s = 0.5;
    /** Pareto tail shape (used when arrivals == Pareto). */
    double pareto_alpha = 1.5;
    /**
     * Optional deterministic rate profile: the instantaneous arrival
     * rate is arrival_rate_per_s * pattern(t) (qpsAt read as a unit-
     * less multiplier — 1.0 = the configured rate), shaping diurnal
     * swells and flash crowds onto either arrival process. Part of
     * the config, so the stream stays a pure function of (cfg, seed).
     */
    tracegen::LoadPatternPtr rate_pattern;

    /** First arrival lands here... */
    double start_s = 1.0;
    /** ...and generation stops at this horizon (seconds). */
    double horizon_s = 1800.0;

    ChurnMix mix;

    /** @name Per-class lifetimes (departures are scheduled kills) */
    /// @{
    tracegen::DurationSpec service_lifetime =
        tracegen::DurationSpec::lognormal(1200.0, 0.8);
    tracegen::DurationSpec analytics_lifetime =
        tracegen::DurationSpec::pareto(700.0, 1.8);
    tracegen::DurationSpec batch_lifetime =
        tracegen::DurationSpec::exponential(500.0);
    tracegen::DurationSpec best_effort_lifetime =
        tracegen::DurationSpec::exponential(300.0);
    /// @}

    /** Fraction of arrivals that morph mid-life (phase change). */
    double phase_change_fraction = 0.08;

    /** @name Closed-loop pacing (see file comment) */
    /// @{
    /** Condition arrivals on the depth probe instead of open-loop. */
    bool closed_loop = false;
    /** Defer arrivals while the probed depth is >= this. */
    size_t closed_loop_target = 64;
    /// @}

    /** @name Stochastic machine faults (0 mttf disables) */
    /// @{
    double server_mttf_s = 0.0; ///< mean time to failure per server.
    double server_mttr_s = 600.0;
    double degrade_fraction = 0.25; ///< degrade instead of crash.
    /// @}
};

/** The workload class a churn item was drawn from. */
enum class ChurnClass
{
    SingleNode,
    Analytics,
    Service,
    BestEffort,
};

/** One planned workload of the stream. */
struct ChurnItem
{
    WorkloadId id = kInvalidWorkload;
    ChurnClass cls = ChurnClass::SingleNode;
    double arrival_s = 0.0;
    /** Scheduled departure; <= 0 means "runs until completion". */
    double depart_s = 0.0;
    bool phase_change = false;
};

/** Plan-level totals (available right after install()). */
struct ChurnCounts
{
    size_t arrivals = 0;
    size_t departures_planned = 0;
    size_t phase_changes = 0;
};

/**
 * Draw one workload of the given class from the factory catalogs —
 * the population model shared by the churn engine and the trace
 * replayer (src/trace/). Within-class parameters (family, dataset
 * size, QPS, ...) come from the factory's RNG stream, so callers that
 * draw in a fixed order get a deterministic population.
 */
workload::Workload makeChurnWorkload(ChurnClass cls, size_t idx,
                                     workload::WorkloadFactory &factory,
                                     const sim::Cluster &cluster,
                                     const char *name_prefix = "churn-");

/**
 * Install one planned workload — the step shared by the churn engine
 * and the trace replayer, after each has made its own draws. A
 * phase-changing item morphs at the midpoint of its life (departure,
 * or horizon_s for stayers), drawing from the factory's stream; then
 * the workload is registered, its arrival and any departure are
 * scheduled on the driver, and the item (id filled in) is appended to
 * the plan and counted.
 */
void installPlanned(ChurnItem item, workload::Workload w,
                    double horizon_s, workload::WorkloadFactory &factory,
                    workload::WorkloadRegistry &registry,
                    driver::ScenarioDriver &driver,
                    std::vector<ChurnItem> &plan, ChurnCounts &counts);

/**
 * Generates one churn stream and schedules it onto a scenario driver.
 * Build, call install() once, then run the driver; the engine must
 * outlive the run (it owns the armed fault injector).
 */
class ChurnEngine
{
  public:
    explicit ChurnEngine(ChurnConfig cfg = {}) : cfg_(cfg) {}

    /**
     * Pre-generate the full open-loop plan from the config's seed,
     * register every workload, and schedule all arrivals, departures,
     * phase changes, and faults onto the driver's event queue. The
     * plan depends only on the config — never on cluster, scheduler,
     * or manager state — so identical configs replay identically.
     * Call once per engine.
     */
    void install(sim::Cluster &cluster,
                 workload::WorkloadRegistry &registry,
                 driver::ScenarioDriver &driver);

    /**
     * Closed-loop depth source, consulted once per pacing instant
     * (e.g. [&m] { return m.admission().size(); }). Set before
     * install(); without a probe the closed loop never defers and
     * degenerates to open-loop pacing.
     */
    void setDepthProbe(std::function<size_t()> probe)
    {
        depth_probe_ = std::move(probe);
    }

    /**
     * The generated plan, in arrival order. Open-loop: complete after
     * install(). Closed-loop: grows as the run generates lazily.
     */
    const std::vector<ChurnItem> &plan() const { return plan_; }

    const ChurnCounts &counts() const { return counts_; }

    /** Arrivals skipped by closed-loop backpressure so far. */
    size_t deferrals() const { return deferrals_; }

    /** The armed fault injector; null when faults are disabled. */
    const sim::FaultInjector *faults() const { return faults_.get(); }

  private:
    /** Draw + register + schedule one arrival at time t. */
    void emitArrival(double t);
    /** One closed-loop pacing instant: maybe emit, then re-arm. */
    void closedLoopStep();
    /**
     * Next inter-arrival gap as seen from time t: the process's raw
     * gap, divided by the rate profile's multiplier at t (infinite
     * when the process rate is zero).
     */
    double pacedGap(double t);

    ChurnConfig cfg_;
    std::vector<ChurnItem> plan_;
    ChurnCounts counts_;
    std::unique_ptr<sim::FaultInjector> faults_;

    /** @name Generation state (lazy generation keeps them live) */
    /// @{
    sim::Cluster *cluster_ = nullptr;
    workload::WorkloadRegistry *registry_ = nullptr;
    driver::ScenarioDriver *driver_ = nullptr;
    std::unique_ptr<stats::Rng> pacing_;
    std::unique_ptr<stats::Rng> lifetimes_;
    std::unique_ptr<stats::Rng> phases_;
    std::unique_ptr<workload::WorkloadFactory> factory_;
    std::unique_ptr<tracegen::ArrivalProcess> process_;
    /// @}

    std::function<size_t()> depth_probe_;
    size_t deferrals_ = 0;
    size_t next_idx_ = 0;
};

} // namespace quasar::churn

