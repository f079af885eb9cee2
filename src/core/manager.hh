/**
 * @file
 * QuasarManager: the full cluster manager of the paper, tying together
 * sandboxed profiling, the four-way CF classification, greedy joint
 * allocation/assignment, admission control, runtime monitoring with
 * reactive and proactive phase detection, the misclassification
 * feedback loop, and conservative allocation adjustment (scale up or
 * down in place first, then out, with state-migration costs for
 * stateful services).
 */

#pragma once

#include <limits>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/admission.hh"
#include "core/classifier.hh"
#include "core/failure_memo.hh"
#include "core/monitor.hh"
#include "core/overload.hh"
#include "core/predictor.hh"
#include "core/scheduler.hh"
#include "driver/cluster_manager.hh"
#include "workload/factory.hh"

namespace quasar::core
{

/** Top-level Quasar configuration. */
struct QuasarConfig
{
    profiling::ProfilerConfig profiler;
    ClassifierConfig classifier;
    SchedulerConfig scheduler;
    MonitorConfig monitor;
    /** Overload control + service autoscaler (core/overload.hh);
     *  disabled by default so existing decision paths and their
     *  placement hashes are unperturbed. */
    OverloadConfig overload;

    /** Enable proactive phase sampling (paper Sec. 4.1). */
    bool proactive_detection = true;
    double proactive_interval_s = 600.0;

    /** Enable the misclassification feedback loop (Sec. 3.2). */
    bool feedback_loop = true;
    /**
     * Size services against the forecast load this far ahead (Sec. 4.1
     * future work: PRESS/AGILE-style prediction as an extra signal);
     * 0 disables predictive sizing.
     */
    double predict_lead_s = 120.0;
    /**
     * Skip admission retries the failure memo proves futile
     * (core/failure_memo.hh). Placements are identical either way:
     * off re-runs the scheduler on every retry and is the reference
     * the on/off replay tests compare against.
     */
    bool failure_memo = true;
    /**
     * Use resource partitioning (Sec. 4.4: cache partitioning / NIC
     * rate limiting) to shield a workload from contention before
     * resorting to scaling or migration.
     */
    bool resource_partitioning = true;

    uint64_t seed = 99;
};

/** Counters exposed for experiments and tests. */
struct QuasarStats
{
    /**
     * Wall-clock (host) time of the decision path, not simulated
     * time: what the manager itself costs. Rank/place breakdowns
     * live in GreedyScheduler::timing().
     */
    stats::TimerStat classify_time; ///< profiling + classification.
    /** Sandboxed profiling runs alone: the profiling subset of
     *  classify_time, plus proactive phase-change probes. */
    stats::TimerStat profile_time;
    stats::TimerStat schedule_time; ///< allocate() per schedule call.
    stats::TimerStat adapt_time;    ///< the adjust() decision body.
    /** Failure-memo checks: one per schedule call of a workload with
     *  a failure on record, whether or not it proved the call futile
     *  (disjoint from schedule_time). */
    stats::TimerStat retry_proof_time;

    size_t scheduled = 0;
    size_t queued = 0;
    /** Schedule calls skipped because the failure memo proved they
     *  would fail; each is re-queued exactly like a failed attempt. */
    size_t retries_skipped = 0;
    size_t rescheduled = 0;
    size_t evictions = 0;
    size_t phase_reclassifications = 0;
    size_t scale_up_adjustments = 0;
    size_t scale_out_adjustments = 0;
    size_t shrinks = 0;
    size_t feedback_updates = 0;
    size_t partitions_granted = 0;
    /** @name Fault tolerance */
    /// @{
    size_t server_failures = 0;  ///< crash events seen.
    size_t tasks_displaced = 0;  ///< displaced workload shares.
    size_t recoveries = 0;       ///< displaced workloads re-placed.
    /// @}
    /** @name Overload control (split QoS-outcome accounting) */
    /// @{
    size_t overload_deferred = 0; ///< arrivals/retries pushed back.
    size_t shed = 0;              ///< terminal load sheds.
    size_t brownouts = 0;         ///< best-effort degradations.
    size_t brownout_restores = 0; ///< degradations undone.
    size_t overload_transitions = 0; ///< detector state changes.
    size_t autoscale_updates = 0; ///< policy control steps.
    /// @}
};

/** The Quasar cluster manager. */
class QuasarManager : public driver::ClusterManager
{
  public:
    QuasarManager(sim::Cluster &cluster,
                  workload::WorkloadRegistry &registry,
                  QuasarConfig cfg = {});

    /**
     * Exhaustively profile `count` representative workloads offline to
     * anchor the classification matrices (paper: 20-30 types).
     */
    void seedOffline(workload::WorkloadFactory &factory,
                     size_t count = 24, double t = 0.0);
    /** Seed with caller-provided workloads. */
    void seedOffline(const std::vector<workload::Workload> &seeds,
                     double t = 0.0);

    void onSubmit(WorkloadId id, double t) override;
    void onTick(double t) override;
    void onCompletion(WorkloadId id, double t) override;
    void onServerDown(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override;
    void onServerUp(ServerId sid, double t) override;
    void onServerDegraded(ServerId sid, double speed_factor,
                          double t) override;
    std::string name() const override { return "quasar"; }

    /** @name Introspection */
    /// @{
    const WorkloadEstimate *estimateFor(WorkloadId id) const;
    const AdmissionQueue &admission() const { return admission_; }
    /** Failed admission attempts on record (core/failure_memo.hh). */
    const FailureMemo &failureMemo() const { return memo_; }
    const QuasarStats &stats() const { return stats_; }
    /** Displacement-to-re-placement times of recovered workloads. */
    const stats::Samples &recoveryTimes() const
    {
        return recovery_times_;
    }
    const profiling::Profiler &profiler() const { return profiler_; }
    Classifier &classifier() { return classifier_; }
    const GreedyScheduler &scheduler() const { return scheduler_; }
    /** Overload controller (state machine, shed/boost decisions,
     *  decision hash, time-in-state). */
    const OverloadController &overload() const { return overload_; }
    /// @}

  private:
    /** "Never happened" for the cooldown clocks: t - kNever is +inf,
     *  so any cooldown has elapsed. */
    static constexpr double kNever =
        -std::numeric_limits<double>::infinity();
    /** Pre-brownout size of one share, for the restore path. */
    struct BrownoutShare
    {
        ServerId server;
        int cores;
        double memory_gb;
    };
    /** Everything the manager keeps about one workload. */
    struct Tracked
    {
        /** Consecutive below-target checks (noise filter). */
        int strikes = 0;
        /** Last grow/shrink adjustment and reclassify+reschedule. */
        double last_adjust = kNever;
        double last_reschedule = kNever;
        LoadPredictor predictor;
        /** Set while the workload awaits re-placement after a crash. */
        std::optional<double> displaced_at;
        /** Pre-brownout share sizes; non-empty while browned out. */
        std::vector<BrownoutShare> brownout_saved;
    };

    /**
     * The one exit of a workload: drop its record, its estimate and
     * every trace the failure memo, the overload controller and the
     * admission queue keep of it. Completions, churn departures and
     * sheds all end here.
     */
    void forget(WorkloadId id);
    /**
     * Write access to id's estimate, the only one (created on first
     * use). A recorded failure was decided against the old estimate,
     * so the failure memo forgets it here (core/failure_memo.hh).
     */
    WorkloadEstimate &estimateForWrite(WorkloadId id);

    double requiredPerf(const workload::Workload &w, double t) const;
    bool trySchedule(WorkloadId id, double t, bool requeue_on_fail);
    /** Whether trySchedule places w given the scheduler's decision. */
    bool admits(const workload::Workload &w,
                const std::optional<Allocation> &alloc,
                double required) const;
    /**
     * Ask the failure memo whether a schedule call for w at
     * `required` is proven to fail (`spread`: the call's fault-zone
     * spreading, which the QUASAR_VERIFY oracle re-runs a skipped
     * call with).
     */
    bool retryProvenFutile(const workload::Workload &w,
                           const WorkloadEstimate &est, double required,
                           bool spread);
    /** Re-place a workload displaced by a crash (no re-profiling). */
    void replaceDisplaced(WorkloadId id, double t);
    /** Close the recovery-time window for a re-placed workload. */
    void noteRecovered(WorkloadId id, double t);
    void applyAllocation(workload::Workload &w, const Allocation &alloc,
                         double t);
    /** Profile w in sandboxed copies and classify it (timed as
     *  classify, profile nested inside). */
    WorkloadEstimate profileAndClassify(workload::Workload &w, double t);
    /** Evict victim from srv; re-queue it unless completed or queued. */
    void evictAndRequeue(sim::Server &srv, WorkloadId victim, double t);
    void releaseWorkload(WorkloadId id);
    /** Predicted absolute perf of the current placement. */
    double predictCurrent(const workload::Workload &w,
                          const WorkloadEstimate &est) const;
    bool tryScaleUp(workload::Workload &w, const WorkloadEstimate &est,
                    double required, double t);
    /**
     * Grant private partitions on sources where the workload's
     * contention exceeds its classified tolerance (when enabled).
     */
    bool tryPartition(workload::Workload &w,
                      const WorkloadEstimate &est);
    bool tryScaleOut(workload::Workload &w, const WorkloadEstimate &est,
                     double required, double t);
    void shrinkAllocation(workload::Workload &w,
                          const WorkloadEstimate &est, double required,
                          double t);
    /** One reactive adjustment of w (record rec, estimate est). */
    void adjust(workload::Workload &w, Tracked &rec,
                const WorkloadEstimate &est, double t);
    void reclassifyAndReschedule(workload::Workload &w, double t);

    /**
     * One admission retry pass (tick / completion / server-up), with
     * overload gating: due entries are shed, re-deferred, or retried.
     * ignore_backoff drains everything (fresh capacity appeared).
     */
    void drainAdmission(double t, bool ignore_backoff);

    /** @name Overload control (core/overload.hh) */
    /// @{
    /** Terminal shed of a queued workload (accounted, never lost). */
    void shedWorkload(workload::Workload &w, double t);
    /** Degrade placed best-effort work while Overloaded, restore it
     *  once the detector is back to Normal. */
    void applyBrownout(double t);
    void restoreBrownout(double t);
    /** One autoscale round over the active placed services. */
    void autoscaleServices(double t);
    /// @}

    sim::Cluster &cluster_;
    workload::WorkloadRegistry &registry_;
    QuasarConfig cfg_;
    profiling::Profiler profiler_;
    Classifier classifier_;
    /** The classification of every workload submitted and not yet
     *  forgotten: onSubmit writes it before any placement or deferral,
     *  so every placed, queued or displaced workload has an entry.
     *  Declared before scheduler_, which holds it by reference. */
    EstimateTable estimates_;
    GreedyScheduler scheduler_;
    Monitor monitor_;
    AdmissionQueue admission_;
    FailureMemo memo_;
    OverloadController overload_;
    stats::Rng rng_;

    /** Live records, one per workload the manager has seen and not
     *  yet forgotten. */
    std::unordered_map<WorkloadId, Tracked> tracked_;
    /** Ids with a brownout_saved record, ascending: restoreBrownout
     *  walks them in this order, and the order decides which resize
     *  wins free capacity. */
    std::set<WorkloadId> browned_out_;
    stats::Samples recovery_times_;
    double last_proactive_ = 0.0;
    QuasarStats stats_;
};

} // namespace quasar::core

