/**
 * @file
 * Debug-build runtime verification layer (CMake option QUASAR_VERIFY).
 *
 * Two kinds of checks, both absent from release builds (every call
 * site is guarded by `#ifdef QUASAR_VERIFY`, and this translation unit
 * is only compiled into the library when the option is ON):
 *
 *  - **Invariant sweeps** (`sweepCluster`): cluster-wide conservation
 *    checks — per-server resource accounting against placed workloads,
 *    no leaked shares for completed/unknown workloads, no duplicate
 *    placements (a non-distributed workload on more than one server),
 *    and ChangeJournal coherence (the sum of server change epochs must
 *    equal the journal's total note count, and every retained entry
 *    must name a real server). The ScenarioDriver runs a sweep at the
 *    end of every tick, so every driver-based test and bench becomes a
 *    soak test of the accounting and journal plumbing.
 *
 *  - **Shadow scheduler oracle** (`shadowCheckAllocation`): every
 *    decision taken through the maintained candidate order is re-run
 *    through the sorted full scan (SchedulerConfig::full_rescan) and
 *    the two Allocations are compared field-for-field, bitwise on
 *    doubles. Any divergence aborts with a diff: a QUASAR_VERIFY soak
 *    across the chaos + churn suites proves zero divergences over
 *    every decision those scenarios take.
 *
 * On violation the layer prints a detailed report to stderr and
 * aborts: a verification build treats a broken invariant like a failed
 * assert, so CI cannot green a divergent scheduler. Counters are
 * exposed so tests can additionally assert that the oracle actually
 * ran (a silently-disabled oracle proves nothing).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/scheduler.hh"
#include "sim/cluster.hh"
#include "workload/workload.hh"

namespace quasar::verify
{

/** How often the layer has run / what it has seen (process-wide). */
struct Counters
{
    uint64_t cluster_sweeps = 0;
    uint64_t shadow_checks = 0;
    /** Primary-vs-shadow mismatches observed. Always 0 on a live
     *  process — a divergence aborts — but kept as a counter so the
     *  failure path is testable and soak reports can print it. */
    uint64_t shadow_divergences = 0;
    /** Full index-coherence audits executed (sampled per refresh,
     *  plus any test-forced unsampled runs). */
    uint64_t index_audits = 0;
    /** Admission retries the failure memo skipped, each re-run
     *  through the full_rescan oracle (checkSkippedRetry). */
    uint64_t skipped_retry_checks = 0;
};

/** Mutable access to the process-wide counters. */
Counters &counters();

/**
 * Cluster-wide invariant sweep. `registry` may be null; the
 * registry-dependent checks (leaked shares, duplicate placements of
 * non-distributed workloads) are skipped without it. Aborts with a
 * report on the first violated invariant.
 */
void sweepCluster(const sim::Cluster &cluster,
                  const workload::WorkloadRegistry *registry);

/**
 * Re-run one allocation decision of `scheduler` (same may_evict and
 * spread inputs) through a full_rescan twin on the same cluster,
 * registry and estimate table, and abort unless the primary decision
 * matches it exactly (node list, sizing columns, evictions, knobs,
 * predicted performance — doubles compared bitwise). Called by
 * GreedyScheduler::allocate for every decision the maintained order
 * takes.
 */
void shadowCheckAllocation(const core::GreedyScheduler &scheduler,
                           const workload::Workload &w,
                           const core::WorkloadEstimate &est,
                           double required_perf, bool may_evict,
                           bool spread,
                           const std::optional<core::Allocation> &primary);

/**
 * Re-run a schedule call the admission failure memo skipped as proven
 * futile (core/failure_memo.hh) through a full_rescan twin of
 * `scheduler`, and abort if the manager would have admitted the
 * result — `admitted` is the manager's own acceptance test. Turns the
 * memo's proof from an argument into a checked fact on every
 * verify-build run.
 */
void checkSkippedRetry(
    const core::GreedyScheduler &scheduler, const workload::Workload &w,
    const core::WorkloadEstimate &est, double required_perf,
    bool may_evict, bool spread,
    const std::function<bool(const std::optional<core::Allocation> &)>
        &admitted);

} // namespace quasar::verify
