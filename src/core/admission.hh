/**
 * @file
 * Admission control (paper Secs. 3.3 and 5): when the scheduler cannot
 * find resources for a workload, it waits in a pending queue instead
 * of oversubscribing machines. Wait time counts toward scheduling
 * overheads.
 *
 * Entries may carry an exponential-backoff policy (used for workloads
 * displaced by machine failures while capacity is temporarily gone):
 * each failed retry doubles the delay before the entry is offered for
 * retry again, up to a cap. Plain entries retry on every pass.
 */

#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "stats/summary.hh"

namespace quasar::core
{

/** FIFO pending queue with wait-time accounting and retry backoff. */
class AdmissionQueue
{
  public:
    /** Add a workload that could not be placed. */
    void enqueue(WorkloadId id, double t);

    /**
     * Add a workload with an exponential-backoff retry policy: the
     * first retry is offered after base_s, then 2*base_s, 4*base_s,
     * ..., capped at max_s. Re-enqueue after a failed retry (via
     * enqueue or this call) keeps both the original wait start and the
     * backoff policy, and doubles the delay.
     */
    void enqueueWithBackoff(WorkloadId id, double t, double base_s,
                            double max_s);

    bool empty() const { return queued_at_.empty(); }
    size_t size() const { return queued_at_.size(); }

    /**
     * Aging / starvation guard: entries queued for at least limit_s
     * are always offered by drainForRetry regardless of their backoff
     * timer, so a low-priority workload repeatedly deferred under
     * pressure cannot be postponed past its age limit once the caller
     * is willing to admit it again. <= 0 (the default) disables the
     * guard.
     */
    void setAgingLimit(double limit_s) { aging_limit_s_ = limit_s; }

    /**
     * Remove and return pending workloads whose retry is due at `now`
     * in FIFO order for a retry pass; the caller re-enqueues the ones
     * that still do not fit (or reports them admitted). Entries not
     * yet due stay pending unless older than the aging limit. The
     * no-argument form ignores backoff and drains everything — used
     * when fresh capacity just appeared.
     */
    std::vector<WorkloadId>
    drainForRetry(double now = std::numeric_limits<double>::infinity());

    /** Record a successful admission at time t (closes wait timing). */
    void admitted(WorkloadId id, double t);

    /**
     * Drop a workload without wait accounting (completed or killed
     * while queued); no-op when not present.
     */
    void abandon(WorkloadId id);

    /** Whether a workload is currently queued (or mid-retry). */
    bool contains(WorkloadId id) const;

    /**
     * When the workload first entered the queue (its wait start),
     * or -1 when not queued. Overload control reads this for the
     * deadline-aware shed decision.
     */
    double enqueuedAt(WorkloadId id) const;

    /** Wait-time statistics over all admitted workloads. */
    const stats::Samples &waitTimes() const { return waits_; }

  private:
    struct Entry
    {
        WorkloadId id;
        double enqueued_at;
        /** Failed retries so far (drives the backoff exponent). */
        int attempts = 0;
        /** Do not offer for retry before this time. */
        double not_before = 0.0;
        /** Backoff base; 0 means retry on every pass. */
        double backoff_s = 0.0;
        double backoff_max_s = 0.0;
    };

    /** Apply the entry's backoff policy after a failed attempt. */
    static void applyBackoff(Entry &e, double t);

    /** Remove id's entry from the FIFO (admitted or abandoned). */
    void dropPending(WorkloadId id);

    /** Waiting entries in FIFO order. */
    std::vector<Entry> pending_;
    /** Entries handed out by drainForRetry and not yet resolved; only
     *  looked up by id, never walked, so hashed. */
    std::unordered_map<WorkloadId, Entry> in_retry_;
    /** Wait start of every queued id (pending or mid-retry): O(1)
     *  contains/enqueuedAt/size, and the "not queued" fast path of
     *  abandon, which runs on every completion. */
    std::unordered_map<WorkloadId, double> queued_at_;
    stats::Samples waits_;
    double aging_limit_s_ = 0.0;
};

} // namespace quasar::core

