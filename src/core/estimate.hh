/**
 * @file
 * The output of classification: a dense estimate of how a workload's
 * performance responds to scale-up, scale-out, platform choice, and
 * interference — the machine-written version of the paper's Fig. 2
 * speedup graphs, produced for every submission.
 */

#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "interference/source.hh"
#include "sim/platform.hh"
#include "workload/scale_up_config.hh"

namespace quasar::core
{

/** Dense per-workload predictions driving allocation/assignment. */
struct WorkloadEstimate
{
    /** Workload type the estimate was produced for. */
    workload::WorkloadType type = workload::WorkloadType::SingleNode;

    /** Scale-up grid used (columns of scale_up_perf). */
    std::vector<workload::ScaleUpConfig> scale_up_grid;
    /**
     * Predicted absolute performance per scale-up column on the
     * profiling platform (rate for batch, capacity QPS for services).
     */
    std::vector<double> scale_up_perf;

    /** Node-count grid used (columns of scale_out_eff). */
    std::vector<int> scale_out_grid;
    /** Predicted speedup over one node, per node-count column. */
    std::vector<double> scale_out_speedup;

    /**
     * Predicted per-platform performance factor relative to the
     * profiling platform, one entry per catalog platform.
     */
    std::vector<double> platform_factor;

    /** Predicted tolerated contention intensity per source. */
    interference::IVector tolerated{};
    /** Predicted caused pressure per allocated core, per source. */
    interference::IVector caused_per_core{};

    /**
     * Exhaustive-mode cross estimates: absolute perf for every
     * (platform, scale-up column) pair, row-major platforms x columns.
     * Empty in the default four-classification mode; when present,
     * nodePerf() reads it directly instead of factorizing.
     */
    std::vector<double> cross_perf;

    /** Platform index profiling ran on. */
    size_t profiling_platform = 0;
    /** Reference configuration all rows are normalized by. */
    workload::ScaleUpConfig reference;
    /** Measured absolute performance at the reference. */
    double reference_value = 0.0;

    /** Profiling wall-clock charged to this workload, seconds. */
    double profiling_seconds = 0.0;
    /** Classification (decision) wall-clock, seconds. */
    double classification_seconds = 0.0;

    /**
     * Predicted performance of one node of catalog platform p at
     * scale-up column col (no interference).
     */
    double nodePerf(size_t platform_idx, size_t col) const;

    /**
     * Predicted scale-out speedup at an arbitrary node count
     * (log-linear interpolation between grid columns).
     */
    double scaleOutSpeedupAt(int nodes) const;

    /**
     * Predicted interference multiplier under a contention vector,
     * using the tolerated thresholds and a conservative default
     * degradation slope beyond them.
     */
    double interferenceMultiplier(const interference::IVector &contention,
                                  double slope_guess = 1.5) const;

    /**
     * Predicted job performance for nodes with the given per-node
     * perf values (applies the scale-out speedup model).
     */
    double jobPerf(const std::vector<double> &node_perfs) const;
};

/**
 * The classifications of the workloads a manager currently knows, by
 * id. The manager writes it; its scheduler holds it by reference and
 * reads residents' tolerances from it in the residents' check.
 */
using EstimateTable = std::unordered_map<WorkloadId, WorkloadEstimate>;

} // namespace quasar::core

